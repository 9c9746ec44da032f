// Package snapshot is the durable, versioned binary format for served
// TRACLUS models. A snapshot captures everything a replica needs to answer
// classification queries — the build configuration, the per-cluster summary
// statistics, and the representative/reference geometry — and deliberately
// nothing else: the classifier's spatial index is rebuilt on load, so the
// format stays geometry-only and backend-agnostic (a snapshot written by a
// grid-indexed daemon loads identically on one configured for R-trees, and
// an index-layout change never invalidates the corpus on disk).
//
// Wire layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "TRACSNAP"
//	8       2     format version (uint16; this package writes Version)
//	10      8     payload length N (uint64)
//	18      4     CRC-32 (IEEE) of the payload
//	22      N     payload
//
// The payload is a fixed field walk (see encodePayload): strings are
// uvarint-length-prefixed UTF-8, counts are uvarints, signed integers are
// zigzag varints, float64s are the 8 raw bytes of math.Float64bits (so the
// round trip is bit-exact, NaN payloads included), and slices are a count
// followed by the elements. Decoding is strict: a truncated input, trailing
// garbage, a checksum mismatch, or an implausible count (one that could not
// fit in the remaining bytes) returns a *CorruptError; a version this
// package does not know returns a *VersionError; a structurally sound
// snapshot whose values are semantically unusable (NaN ε, a cluster with no
// reference geometry, …) returns a *InvalidError. Decode never panics —
// FuzzSnapshotDecode pins that.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/geom"
	"repro/internal/geometry"
)

// Version is the newest format version this package writes and the highest
// it can read. Older versions remain readable forever: the committed golden
// corpus under testdata/golden replays one file per historical version on
// every CI run.
//
// Version history:
//
//	1: name + config + stats + clusters (geometry-only classifier state).
//	2: v1 walk followed by an optional dendrogram section — the multi-ε
//	   merge structure (internal/dendro): item set and per-item sorted
//	   neighbor lists. Prefix sums and the edge replay log are derived
//	   deterministically on load, not stored. v1 snapshots decode to a
//	   model with a nil Dendro (rebuilt lazily by the serving layer).
//	3: v2 walk followed by a geometry section — the geometry kind name,
//	   the temporal weight wT, the optional geodesic projection frame, and
//	   the per-cluster time windows of a spatiotemporal model. v1/v2
//	   snapshots decode with the zero geometry section, i.e. planar — the
//	   exact semantics they were written under.
//	4: v3 walk followed by the append epoch — how many incremental appends
//	   the model has absorbed since its from-scratch build. Earlier
//	   versions decode to epoch 0 (a pure batch build), which is exactly
//	   what they were.
const Version = 4

// magic identifies a snapshot file; it is the first eight bytes.
const magic = "TRACSNAP"

// headerSize is the fixed prefix before the payload.
const headerSize = len(magic) + 2 + 8 + 4

// CorruptError reports an input that is not a well-formed snapshot:
// truncation, trailing bytes, checksum mismatch, or an impossible count.
type CorruptError struct {
	// Offset is the byte position at which decoding failed (payload
	// offsets are relative to the whole input, header included).
	Offset int
	// Reason says what was wrong at that offset.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snapshot: corrupt at byte %d: %s", e.Offset, e.Reason)
}

// VersionError reports a snapshot written by a newer format version than
// this binary understands. Older-than-current versions never produce it —
// they decode through their frozen readers.
type VersionError struct {
	// Got is the version the header declares.
	Got uint16
	// Supported is the newest version this package reads.
	Supported uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: unsupported format version %d (this build reads ≤ %d)", e.Got, e.Supported)
}

// InvalidError reports a structurally well-formed snapshot whose decoded
// values cannot describe a servable model (the CRC passed, but the content
// is semantically out of range — e.g. a hand-crafted file).
type InvalidError struct {
	// Field names the offending value.
	Field string
	// Reason says what it must satisfy.
	Reason string
}

func (e *InvalidError) Error() string {
	return fmt.Sprintf("snapshot: invalid %s: %s", e.Field, e.Reason)
}

// Config is the serialized build configuration — every parameter that
// shapes classification of new trajectories against the model. Weights are
// stored resolved (the writer substitutes the paper's defaults for the zero
// value), so a loaded classifier computes the exact same distances.
type Config struct {
	Eps              float64
	MinLns           float64
	MinTrajs         int
	WPerp            float64 // w⊥
	WPar             float64 // w∥
	WAngle           float64 // wθ
	Undirected       bool
	CostAdvantage    float64
	MinSegmentLength float64
	Gamma            float64
	// Index is the spatial-index backend name ("grid", "rtree", "brute",
	// or an accepted alias). It is a serving preference, not part of the
	// model's identity: every backend classifies bit-identically, and the
	// loader may honour or override it.
	Index string
}

// Stats carries the model-level summary numbers that are expensive (or
// impossible) to recompute from geometry alone.
type Stats struct {
	TotalSegments   int
	NoiseSegments   int
	RemovedClusters int
	Trajectories    int
	Points          int
	QMeasure        float64
	BuiltAtUnixNano int64
	BuildDurationNS int64
}

// Cluster is one cluster's snapshot: its summary statistics plus the
// geometry the classifier serves from. Reference is the classifier's exact
// reference-segment list for this cluster — usually the consecutive
// segments of Representative, but the member partitions when the
// representative collapsed — stored verbatim so a loaded classifier indexes
// byte-for-byte the same segments in the same order.
type Cluster struct {
	Segments       int     // member-partition count
	Trajectories   int     // |PTR(C)|, distinct participating trajectories
	SSE            float64 // this cluster's term of the paper's Total SSE
	Representative []geom.Point
	Reference      []geom.Segment
}

// DendroItem is one partitioned segment of the persisted merge structure:
// the geometry plus the trajectory id and weight the clustering semantics
// need (Definition 10 counts distinct trajectories; weights feed the core
// predicate).
type DendroItem struct {
	Seg    geom.Segment
	TrajID int
	Weight float64
}

// DendroNeighbor is one entry of an item's sorted neighbor list.
type DendroNeighbor struct {
	ID   int     // index into Dendro.Items
	Dist float64 // exact TRACLUS distance, ≤ MaxEps
}

// Dendro is the persisted multi-ε merge structure (format v2+): the item
// set and, per item, every neighbor within MaxEps sorted by (Dist, ID).
// Only the neighbor lists are stored — the per-item weight prefix sums and
// the (dist, a, b)-sorted union-find replay log are recomputed on load,
// which is exact: the additions replay in the identical stored order and
// the edge sort key is unique per pair.
//
// Validate checks structural soundness (finite values, ids in range,
// sortedness, no duplicate ids), not cross-list symmetry: a hand-crafted
// asymmetric snapshot yields well-formed but meaningless cuts, never a
// crash.
type Dendro struct {
	MaxEps    float64
	Items     []DendroItem
	Neighbors [][]DendroNeighbor // len == len(Items)
}

// Model is the decoded form of one snapshot.
type Model struct {
	Name     string
	Config   Config
	Stats    Stats
	Clusters []Cluster
	// Dendro is the optional multi-ε merge structure; nil when the
	// snapshot predates format v2 or the model was built without one.
	Dendro *Dendro
	// Geometry names the model's geometry kind — "planar",
	// "spatiotemporal", or "geodesic" (format v3+). The empty string, which
	// every v1/v2 snapshot decodes to, means planar.
	Geometry string
	// TemporalWeight is wT, the spatiotemporal distance weight; meaningful
	// (and only valid non-zero) under the spatiotemporal geometry.
	TemporalWeight float64
	// Frame is the geodesic model's resolved equirectangular projection;
	// nil for every other geometry. A geodesic snapshot must carry one —
	// without it queries cannot project into the model's working frame.
	Frame *geometry.Frame
	// Windows are the per-cluster time windows of a spatiotemporal model,
	// index-aligned with Clusters; empty for every other geometry.
	Windows []geometry.Interval
	// Epoch counts the incremental appends absorbed since the from-scratch
	// build (format v4+); 0 for batch-built models and for snapshots that
	// predate the append path.
	Epoch int64
}

// maxNameLen bounds the model name, mirroring the daemon's name rule.
const maxNameLen = 64

// Validate reports the first semantically unusable field as a
// *InvalidError. Encode refuses invalid models and Decode rejects invalid
// inputs, so every *Model that crosses the codec is servable.
func (m *Model) Validate() error {
	if m.Name == "" || len(m.Name) > maxNameLen {
		return &InvalidError{Field: "Name", Reason: fmt.Sprintf("must be 1..%d bytes", maxNameLen)}
	}
	for _, r := range m.Name {
		if r == '/' || r == '\\' || r == 0 {
			return &InvalidError{Field: "Name", Reason: "must not contain path separators or NUL"}
		}
	}
	c := m.Config
	if !finitePos(c.Eps) {
		return &InvalidError{Field: "Config.Eps", Reason: "must be positive and finite"}
	}
	if !finitePos(c.MinLns) {
		return &InvalidError{Field: "Config.MinLns", Reason: "must be positive and finite"}
	}
	if c.MinTrajs < 0 {
		return &InvalidError{Field: "Config.MinTrajs", Reason: "must be non-negative"}
	}
	for _, w := range [...]struct {
		name string
		v    float64
	}{{"WPerp", c.WPerp}, {"WPar", c.WPar}, {"WAngle", c.WAngle}} {
		if !finiteNonNeg(w.v) {
			return &InvalidError{Field: "Config." + w.name, Reason: "must be non-negative and finite"}
		}
	}
	if c.WPerp == 0 && c.WPar == 0 && c.WAngle == 0 {
		return &InvalidError{Field: "Config.Weights", Reason: "at least one component must be positive"}
	}
	for _, w := range [...]struct {
		name string
		v    float64
	}{{"CostAdvantage", c.CostAdvantage}, {"MinSegmentLength", c.MinSegmentLength}, {"Gamma", c.Gamma}} {
		if !finiteNonNeg(w.v) {
			return &InvalidError{Field: "Config." + w.name, Reason: "must be non-negative and finite"}
		}
	}
	s := m.Stats
	for _, n := range [...]struct {
		name string
		v    int
	}{{"TotalSegments", s.TotalSegments}, {"NoiseSegments", s.NoiseSegments},
		{"RemovedClusters", s.RemovedClusters}, {"Trajectories", s.Trajectories}, {"Points", s.Points}} {
		if n.v < 0 {
			return &InvalidError{Field: "Stats." + n.name, Reason: "must be non-negative"}
		}
	}
	for i, cl := range m.Clusters {
		if cl.Segments < 0 || cl.Trajectories < 0 {
			return &InvalidError{Field: fmt.Sprintf("Clusters[%d]", i), Reason: "counts must be non-negative"}
		}
		if len(cl.Reference) == 0 {
			return &InvalidError{Field: fmt.Sprintf("Clusters[%d].Reference", i),
				Reason: "must hold at least one reference segment"}
		}
		for _, p := range cl.Representative {
			if !p.IsFinite() {
				return &InvalidError{Field: fmt.Sprintf("Clusters[%d].Representative", i),
					Reason: "coordinates must be finite"}
			}
		}
		for _, sg := range cl.Reference {
			if !sg.Start.IsFinite() || !sg.End.IsFinite() {
				return &InvalidError{Field: fmt.Sprintf("Clusters[%d].Reference", i),
					Reason: "coordinates must be finite"}
			}
		}
	}
	if m.Dendro != nil {
		if err := m.Dendro.Validate(); err != nil {
			return err
		}
	}
	return m.validateGeometry()
}

// validateGeometry checks the v3 geometry section: a known kind, the
// kind-specific state present exactly when the kind needs it, and finite
// values throughout.
func (m *Model) validateGeometry() error {
	kind, ok := geometry.ParseKind(m.Geometry)
	if !ok {
		return &InvalidError{Field: "Geometry", Reason: fmt.Sprintf("unknown geometry %q", m.Geometry)}
	}
	g := geometry.Geometry{Kind: kind, WT: m.TemporalWeight, Frame: m.Frame}
	if field, reason := g.Validate(); field != "" {
		return &InvalidError{Field: "Geometry." + field, Reason: reason}
	}
	if kind == geometry.Geodesic && m.Frame == nil {
		return &InvalidError{Field: "Frame", Reason: "geodesic models must carry their projection frame"}
	}
	if kind == geometry.Spatiotemporal {
		if len(m.Windows) != len(m.Clusters) {
			return &InvalidError{Field: "Windows", Reason: fmt.Sprintf(
				"spatiotemporal models need one window per cluster (%d windows, %d clusters)", len(m.Windows), len(m.Clusters))}
		}
		for i, w := range m.Windows {
			if !w.Valid() {
				return &InvalidError{Field: fmt.Sprintf("Windows[%d]", i), Reason: "must be finite with Start ≤ End"}
			}
		}
	} else if len(m.Windows) != 0 {
		return &InvalidError{Field: "Windows", Reason: "cluster windows only valid with the spatiotemporal geometry"}
	}
	if m.Epoch < 0 {
		return &InvalidError{Field: "Epoch", Reason: "must be non-negative"}
	}
	return nil
}

// Validate checks the merge structure's own invariants; see the Dendro doc
// for what is (and deliberately is not) enforced.
func (dd *Dendro) Validate() error {
	if !finitePos(dd.MaxEps) {
		return &InvalidError{Field: "Dendro.MaxEps", Reason: "must be positive and finite"}
	}
	if len(dd.Neighbors) != len(dd.Items) {
		return &InvalidError{Field: "Dendro.Neighbors",
			Reason: fmt.Sprintf("must hold one list per item (%d lists, %d items)", len(dd.Neighbors), len(dd.Items))}
	}
	for i, it := range dd.Items {
		if !it.Seg.Start.IsFinite() || !it.Seg.End.IsFinite() {
			return &InvalidError{Field: fmt.Sprintf("Dendro.Items[%d].Seg", i), Reason: "coordinates must be finite"}
		}
		if !finiteNonNeg(it.Weight) {
			return &InvalidError{Field: fmt.Sprintf("Dendro.Items[%d].Weight", i), Reason: "must be non-negative and finite"}
		}
	}
	// seen stamps detect a duplicate neighbor id within one list in O(n+E)
	// without a per-list allocation.
	seen := make([]int, len(dd.Items))
	for i := range seen {
		seen[i] = -1
	}
	// The field name is formatted only for the entry that fails: one
	// Sprintf per entry cost more than the rest of the walk.
	for i, list := range dd.Neighbors {
		for k, nb := range list {
			var reason string
			switch {
			case nb.ID < 0 || nb.ID >= len(dd.Items):
				reason = fmt.Sprintf("id %d out of range [0, %d)", nb.ID, len(dd.Items))
			case math.IsNaN(nb.Dist) || nb.Dist < 0 || nb.Dist > dd.MaxEps:
				reason = "distance must be in [0, MaxEps]"
			case k > 0 && (nb.Dist < list[k-1].Dist || nb.Dist == list[k-1].Dist && nb.ID <= list[k-1].ID):
				reason = "list must be strictly sorted by (dist, id)"
			case seen[nb.ID] == i:
				reason = fmt.Sprintf("duplicate neighbor id %d", nb.ID)
			}
			if reason != "" {
				return &InvalidError{Field: fmt.Sprintf("Dendro.Neighbors[%d][%d]", i, k), Reason: reason}
			}
			seen[nb.ID] = i
		}
	}
	return nil
}

func finitePos(v float64) bool    { return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0 }
func finiteNonNeg(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }

// Encode serializes m in the current format version. It validates first, so
// bytes produced here always decode.
func Encode(m *Model) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	payload := encodePayload(m)
	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...), nil
}

func encodePayload(m *Model) []byte {
	var e encoder
	e.str(m.Name)
	c := m.Config
	e.f64(c.Eps)
	e.f64(c.MinLns)
	e.varint(int64(c.MinTrajs))
	e.f64(c.WPerp)
	e.f64(c.WPar)
	e.f64(c.WAngle)
	e.bool(c.Undirected)
	e.f64(c.CostAdvantage)
	e.f64(c.MinSegmentLength)
	e.f64(c.Gamma)
	e.str(c.Index)
	s := m.Stats
	e.varint(int64(s.TotalSegments))
	e.varint(int64(s.NoiseSegments))
	e.varint(int64(s.RemovedClusters))
	e.varint(int64(s.Trajectories))
	e.varint(int64(s.Points))
	e.f64(s.QMeasure)
	e.varint(s.BuiltAtUnixNano)
	e.varint(s.BuildDurationNS)
	e.uvarint(uint64(len(m.Clusters)))
	for _, cl := range m.Clusters {
		e.varint(int64(cl.Segments))
		e.varint(int64(cl.Trajectories))
		e.f64(cl.SSE)
		e.uvarint(uint64(len(cl.Representative)))
		for _, p := range cl.Representative {
			e.f64(p.X)
			e.f64(p.Y)
		}
		e.uvarint(uint64(len(cl.Reference)))
		for _, sg := range cl.Reference {
			e.f64(sg.Start.X)
			e.f64(sg.Start.Y)
			e.f64(sg.End.X)
			e.f64(sg.End.Y)
		}
	}
	// v2: optional dendrogram section after the v1 walk.
	if m.Dendro == nil {
		e.bool(false)
	} else {
		e.bool(true)
		dd := m.Dendro
		e.f64(dd.MaxEps)
		e.uvarint(uint64(len(dd.Items)))
		for _, it := range dd.Items {
			e.f64(it.Seg.Start.X)
			e.f64(it.Seg.Start.Y)
			e.f64(it.Seg.End.X)
			e.f64(it.Seg.End.Y)
			e.varint(int64(it.TrajID))
			e.f64(it.Weight)
		}
		for _, list := range dd.Neighbors { // one list per item, same order
			e.uvarint(uint64(len(list)))
			for _, nb := range list {
				e.uvarint(uint64(nb.ID))
				e.f64(nb.Dist)
			}
		}
	}
	// v3: geometry section after the dendro section.
	e.str(m.Geometry)
	e.f64(m.TemporalWeight)
	if m.Frame == nil {
		e.bool(false)
	} else {
		e.bool(true)
		e.f64(m.Frame.Lat0)
		e.f64(m.Frame.Lon0)
	}
	e.uvarint(uint64(len(m.Windows)))
	for _, w := range m.Windows {
		e.f64(w.Start)
		e.f64(w.End)
	}
	// v4: the append epoch after the geometry section.
	e.uvarint(uint64(m.Epoch))
	return e.buf
}

type encoder struct{ buf []byte }

func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Decode parses one snapshot. The error is always typed: *CorruptError,
// *VersionError, or *InvalidError (see the package documentation for when
// each applies).
func Decode(data []byte) (*Model, error) {
	if len(data) < headerSize {
		return nil, &CorruptError{Offset: len(data), Reason: "truncated header"}
	}
	if string(data[:len(magic)]) != magic {
		return nil, &CorruptError{Offset: 0, Reason: "bad magic (not a TRACLUS snapshot)"}
	}
	version := binary.LittleEndian.Uint16(data[len(magic):])
	if version == 0 {
		return nil, &CorruptError{Offset: len(magic), Reason: "version 0 is not a valid format version"}
	}
	if version > Version {
		return nil, &VersionError{Got: version, Supported: Version}
	}
	plen := binary.LittleEndian.Uint64(data[len(magic)+2:])
	sum := binary.LittleEndian.Uint32(data[len(magic)+10:])
	payload := data[headerSize:]
	if uint64(len(payload)) < plen {
		return nil, &CorruptError{Offset: len(data), Reason: fmt.Sprintf(
			"truncated payload: header declares %d bytes, %d present", plen, len(payload))}
	}
	if uint64(len(payload)) > plen {
		return nil, &CorruptError{Offset: headerSize + int(plen), Reason: "trailing bytes after payload"}
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, &CorruptError{Offset: len(magic) + 10, Reason: fmt.Sprintf(
			"checksum mismatch: header %08x, payload %08x", sum, got)}
	}
	// Every version starts with the v1 field walk; v2 appends the optional
	// dendrogram section, v3 the geometry section.
	d := &decoder{buf: payload, base: headerSize}
	m, err := decodePayloadV1(d)
	if err == nil && version >= 2 {
		err = decodeDendroV2(d, m)
	}
	if err == nil && version >= 3 {
		err = decodeGeometryV3(d, m)
	}
	if err == nil && version >= 4 {
		err = decodeEpochV4(d, m)
	}
	if err != nil {
		return nil, err
	}
	if d.off != len(d.buf) {
		// Unreachable while the CRC covers the whole payload, but kept so a
		// future version bump cannot silently accept under-consumed input.
		return nil, &CorruptError{Offset: d.base + d.off, Reason: "payload longer than its content"}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func decodePayloadV1(d *decoder) (*Model, error) {
	m := &Model{}
	var err error
	read := func(f func() error) {
		if err == nil {
			err = f()
		}
	}
	read(func() error { return d.str(&m.Name, maxNameLen) })
	c := &m.Config
	read(func() error { return d.f64(&c.Eps) })
	read(func() error { return d.f64(&c.MinLns) })
	read(func() error { return d.vint(&c.MinTrajs) })
	read(func() error { return d.f64(&c.WPerp) })
	read(func() error { return d.f64(&c.WPar) })
	read(func() error { return d.f64(&c.WAngle) })
	read(func() error { return d.bool(&c.Undirected) })
	read(func() error { return d.f64(&c.CostAdvantage) })
	read(func() error { return d.f64(&c.MinSegmentLength) })
	read(func() error { return d.f64(&c.Gamma) })
	read(func() error { return d.str(&c.Index, 32) })
	s := &m.Stats
	read(func() error { return d.vint(&s.TotalSegments) })
	read(func() error { return d.vint(&s.NoiseSegments) })
	read(func() error { return d.vint(&s.RemovedClusters) })
	read(func() error { return d.vint(&s.Trajectories) })
	read(func() error { return d.vint(&s.Points) })
	read(func() error { return d.f64(&s.QMeasure) })
	read(func() error { return d.vint64(&s.BuiltAtUnixNano) })
	read(func() error { return d.vint64(&s.BuildDurationNS) })
	if err != nil {
		return nil, err
	}
	// Minimum encoded cluster: 2 one-byte varints + SSE + 2 zero counts.
	nclusters, err := d.count(1 + 1 + 8 + 1 + 1)
	if err != nil {
		return nil, err
	}
	m.Clusters = make([]Cluster, 0, nclusters)
	for i := 0; i < nclusters; i++ {
		var cl Cluster
		read(func() error { return d.vint(&cl.Segments) })
		read(func() error { return d.vint(&cl.Trajectories) })
		read(func() error { return d.f64(&cl.SSE) })
		if err != nil {
			return nil, err
		}
		npts, cerr := d.count(16) // a point is two float64s
		if cerr != nil {
			return nil, cerr
		}
		cl.Representative = make([]geom.Point, npts)
		for j := range cl.Representative {
			p := &cl.Representative[j]
			read(func() error { return d.f64(&p.X) })
			read(func() error { return d.f64(&p.Y) })
		}
		nref, cerr := d.count(32) // a segment is four float64s
		if cerr != nil {
			return nil, cerr
		}
		cl.Reference = make([]geom.Segment, nref)
		for j := range cl.Reference {
			sg := &cl.Reference[j]
			read(func() error { return d.f64(&sg.Start.X) })
			read(func() error { return d.f64(&sg.Start.Y) })
			read(func() error { return d.f64(&sg.End.X) })
			read(func() error { return d.f64(&sg.End.Y) })
		}
		if err != nil {
			return nil, err
		}
		m.Clusters = append(m.Clusters, cl)
	}
	return m, err
}

// decodeDendroV2 reads the dendrogram section that follows the v1 walk in
// format v2.
func decodeDendroV2(d *decoder, m *Model) error {
	var present bool
	if err := d.bool(&present); err != nil {
		return err
	}
	if !present {
		return nil
	}
	dd := &Dendro{}
	if err := d.f64(&dd.MaxEps); err != nil {
		return err
	}
	// Minimum encoded item: four coordinate float64s + a one-byte trajectory
	// id + the weight.
	nitems, err := d.count(4*8 + 1 + 8)
	if err != nil {
		return err
	}
	dd.Items = make([]DendroItem, nitems)
	for i := range dd.Items {
		it := &dd.Items[i]
		for _, v := range [...]*float64{&it.Seg.Start.X, &it.Seg.Start.Y, &it.Seg.End.X, &it.Seg.End.Y} {
			if err := d.f64(v); err != nil {
				return err
			}
		}
		if err := d.vint(&it.TrajID); err != nil {
			return err
		}
		if err := d.f64(&it.Weight); err != nil {
			return err
		}
	}
	dd.Neighbors = make([][]DendroNeighbor, nitems)
	for i := range dd.Neighbors {
		// Minimum encoded neighbor: a one-byte id + the distance.
		cnt, err := d.count(1 + 8)
		if err != nil {
			return err
		}
		list := make([]DendroNeighbor, cnt)
		for k := range list {
			var id uint64
			if err := d.uvarint(&id); err != nil {
				return err
			}
			if id > math.MaxInt32 {
				return d.corrupt(fmt.Sprintf("neighbor id %d out of range", id))
			}
			list[k].ID = int(id)
			if err := d.f64(&list[k].Dist); err != nil {
				return err
			}
		}
		dd.Neighbors[i] = list
	}
	m.Dendro = dd
	return nil
}

// decodeGeometryV3 reads the geometry section that follows the dendro
// section in format v3.
func decodeGeometryV3(d *decoder, m *Model) error {
	if err := d.str(&m.Geometry, 32); err != nil {
		return err
	}
	if err := d.f64(&m.TemporalWeight); err != nil {
		return err
	}
	var hasFrame bool
	if err := d.bool(&hasFrame); err != nil {
		return err
	}
	if hasFrame {
		f := &geometry.Frame{}
		if err := d.f64(&f.Lat0); err != nil {
			return err
		}
		if err := d.f64(&f.Lon0); err != nil {
			return err
		}
		m.Frame = f
	}
	nwin, err := d.count(16) // a window is two float64s
	if err != nil {
		return err
	}
	if nwin > 0 {
		m.Windows = make([]geometry.Interval, nwin)
		for i := range m.Windows {
			if err := d.f64(&m.Windows[i].Start); err != nil {
				return err
			}
			if err := d.f64(&m.Windows[i].End); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeEpochV4 reads the append epoch that follows the geometry section in
// format v4.
func decodeEpochV4(d *decoder, m *Model) error {
	var e uint64
	if err := d.uvarint(&e); err != nil {
		return err
	}
	if e > math.MaxInt64 {
		return d.corrupt(fmt.Sprintf("epoch %d out of range", e))
	}
	m.Epoch = int64(e)
	return nil
}

// decoder walks the payload with strict bounds checking; every primitive
// returns a *CorruptError (with the absolute input offset) on underrun.
type decoder struct {
	buf  []byte
	off  int
	base int // offset of buf[0] in the whole input, for error reporting
}

func (d *decoder) corrupt(reason string) error {
	return &CorruptError{Offset: d.base + d.off, Reason: reason}
}

func (d *decoder) f64(v *float64) error {
	if d.off+8 > len(d.buf) {
		return d.corrupt("truncated float64")
	}
	*v = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return nil
}

func (d *decoder) bool(v *bool) error {
	if d.off >= len(d.buf) {
		return d.corrupt("truncated bool")
	}
	switch d.buf[d.off] {
	case 0:
		*v = false
	case 1:
		*v = true
	default:
		return d.corrupt(fmt.Sprintf("bool byte must be 0 or 1, got %d", d.buf[d.off]))
	}
	d.off++
	return nil
}

func (d *decoder) uvarint(v *uint64) error {
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return d.corrupt("bad uvarint")
	}
	d.off += n
	*v = x
	return nil
}

func (d *decoder) vint64(v *int64) error {
	x, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return d.corrupt("bad varint")
	}
	d.off += n
	*v = x
	return nil
}

func (d *decoder) vint(v *int) error {
	var x int64
	if err := d.vint64(&x); err != nil {
		return err
	}
	if x < math.MinInt32 || x > math.MaxInt32 {
		return d.corrupt(fmt.Sprintf("integer %d out of range", x))
	}
	*v = int(x)
	return nil
}

// count reads a slice length and rejects any value whose elements could not
// possibly fit in the remaining payload — the guard that keeps a 5-byte
// hostile input from asking for a multi-gigabyte allocation.
func (d *decoder) count(minElemSize int) (int, error) {
	var n uint64
	if err := d.uvarint(&n); err != nil {
		return 0, err
	}
	if remaining := uint64(len(d.buf) - d.off); n > remaining/uint64(minElemSize) {
		return 0, d.corrupt(fmt.Sprintf(
			"count %d cannot fit in %d remaining bytes (min element size %d)", n, len(d.buf)-d.off, minElemSize))
	}
	return int(n), nil
}

func (d *decoder) str(v *string, maxLen int) error {
	var n uint64
	if err := d.uvarint(&n); err != nil {
		return err
	}
	if n > uint64(maxLen) {
		return d.corrupt(fmt.Sprintf("string length %d exceeds maximum %d", n, maxLen))
	}
	if d.off+int(n) > len(d.buf) {
		return d.corrupt("truncated string")
	}
	*v = string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return nil
}

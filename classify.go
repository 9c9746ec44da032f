package traclus

// This file implements online classification of unseen trajectories against
// a built clustering — the serving-side counterpart of Pipeline.Run. A
// Classifier snapshots a Result's representative trajectories as indexed
// reference segments; Classify then partitions a query trajectory with the
// same MDL configuration the model was built with and assigns it to the
// cluster whose representative segments are nearest under the same
// three-component distance, length-weighted across the query's partitions.
//
// The nearest-segment machinery is not private to this file: the reference
// segments are indexed through internal/spindex — the same subsystem, and
// the same backend choice, the clustering itself used — and the exact
// expanding-radius search off the dist ≥ c·mindist lower bound lives there
// (spindex.SearchQuery.Nearest), shared with the grouping phase's ε-range
// pruning instead of duplicated here.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/geometry"
	"repro/internal/lsdist"
	"repro/internal/mdl"
	"repro/internal/spindex"
)

// ErrNoClusters is returned when a Result holds no clusters (or no usable
// reference segments) to classify against.
var ErrNoClusters = errors.New("traclus: result has no clusters to classify against")

// ErrTimedModel is returned when Classify gets a trajectory without Times
// against a spatiotemporal model: the model's distance needs the query's
// timestamps.
var ErrTimedModel = errors.New("traclus: model is spatiotemporal; classify trajectories that carry Times")

// Classifier assigns unseen trajectories to the nearest cluster of a built
// Result. It is immutable after construction and safe for concurrent use:
// every Classify call owns its query cursor, and the underlying spatial
// index is only read. Build it once per model — construction indexes every
// reference segment exactly once; Result.Classifier memoizes that build, so
// the serving layer and ad-hoc Result.Classify calls share one index.
type Classifier struct {
	part        mdl.Config
	eps         float64
	numClusters int

	// opts and index (the backend's Name()) record how the reference index
	// was built, so Snapshot can serialize a geometry-only description that
	// rebuilds the identical classifier.
	opts  lsdist.Options
	index string

	// geo is the model's geometry. A spatiotemporal model additionally
	// carries windows — each cluster's time window, index-aligned with
	// cluster ids — so Classify can add wT·gap(query, window) to every
	// candidate distance; a geodesic model carries the projection frame in
	// geo.Frame so queries project exactly as the training data did.
	geo     Geometry
	windows []Interval

	// Pooled reference segments: search.Segment(i) belongs to cluster
	// owner[i]; search indexes them with the model's backend and answers
	// the exact nearest queries.
	owner  []int
	search *spindex.Searcher

	// queryPool recycles per-call scratch (classifyScratch) so the serving
	// hot path does not allocate O(len(segs)) per trajectory.
	queryPool sync.Pool
}

// classifyScratch is what one Classify call reuses: the partitioner's
// buffers for the query's MDL partitioning, and the search cursor
// (candidate scratch and any backend marks) for its nearest searches.
type classifyScratch struct {
	part *mdl.Partitioner
	sq   *spindex.SearchQuery
}

func (c *Classifier) newScratch() any {
	return &classifyScratch{part: mdl.NewPartitioner(c.part), sq: c.search.Query()}
}

// NewClassifier builds a classifier over the result's representative
// trajectories, indexing them with the same spindex backend the clustering
// used. Clusters whose representative collapsed (fewer than two sweep
// points) are represented by their member segments instead, so every
// cluster stays reachable. Returns ErrNoClusters when there is nothing to
// classify against.
//
// Prefer Result.Classifier, which builds once and caches; NewClassifier
// always constructs a fresh classifier (and thus a fresh index).
func NewClassifier(res *Result) (*Classifier, error) {
	if res == nil || len(res.Clusters) == 0 {
		return nil, ErrNoClusters
	}
	backend := res.cfg.Backend
	c := &Classifier{
		part:        res.cfg.Partition,
		eps:         res.cfg.Eps,
		numClusters: len(res.Clusters),
		opts:        res.cfg.Distance,
		index:       backend.Name(),
		geo:         res.cfg.Geometry,
		windows:     res.windows,
	}
	var segs []geom.Segment
	for ci, cl := range res.Clusters {
		for _, s := range referenceSegments(cl) {
			segs = append(segs, s)
			c.owner = append(c.owner, ci)
		}
	}
	if len(segs) == 0 {
		return nil, ErrNoClusters
	}
	c.search = spindex.NewSearcher(segs, res.cfg.Distance, backend)
	c.queryPool.New = c.newScratch
	return c, nil
}

// referenceSegments returns the segments standing in for a cluster: the
// consecutive segments of its representative trajectory, or its member
// partitions when no usable representative exists.
func referenceSegments(cl Cluster) []geom.Segment {
	if len(cl.Representative) >= 2 {
		segs := make([]geom.Segment, 0, len(cl.Representative)-1)
		for i := 1; i < len(cl.Representative); i++ {
			s := geom.Segment{Start: cl.Representative[i-1], End: cl.Representative[i]}
			if !s.IsDegenerate() {
				segs = append(segs, s)
			}
		}
		if len(segs) > 0 {
			return segs
		}
	}
	return cl.Segments
}

// NumClusters returns the number of clusters the classifier assigns into.
func (c *Classifier) NumClusters() int { return c.numClusters }

// Classify assigns one trajectory to its nearest cluster. The trajectory is
// partitioned with the model's MDL configuration; each partition votes for
// the cluster owning its nearest reference segment, weighted by partition
// length. The returned distance is the length-weighted mean distance of the
// winning cluster's votes — small when the trajectory hugs the cluster's
// representative, growing as it strays.
//
// The trajectory follows the model's geometry. A geodesic query arrives in
// lat/lon degrees, within |longitude| ≤ 360 and |latitude| ≤ 90 (a
// *ConfigError otherwise). A spatiotemporal query carries Times
// (ErrTimedModel otherwise): each partition inherits its time span, and
// every candidate's distance gains wT·gap(query span, cluster window) —
// added through the exact nearest search, whose pruning stays sound because
// the addend is non-negative (see spindex.SearchQuery.NearestAdjusted).
// Times under any other geometry are a *ConfigError.
func (c *Classifier) Classify(tr Trajectory) (clusterID int, distance float64, err error) {
	if err := fitsGeometry(tr, c.geo); err != nil {
		if c.geo.Timed() {
			return -1, 0, ErrTimedModel
		}
		return -1, 0, fmt.Errorf("traclus: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return -1, 0, fmt.Errorf("traclus: %w", err)
	}
	if c.geo.Kind == geometry.Geodesic && c.geo.Frame != nil {
		// Queries arrive in the model's raw frame (lon/lat degrees) and are
		// projected through the exact frame the model was built in.
		tr.Points = c.geo.Frame.ProjectTrajectory(tr.Points)
	}
	sc := c.queryPool.Get().(*classifyScratch)
	defer c.queryPool.Put(sc)
	qsegs, spans := sc.part.Partition(tr)
	return c.vote(tr.ID, qsegs, spans, sc.sq)
}

// nearest resolves one query partition's vote: the owning cluster of the
// nearest reference segment and the (possibly temporally-adjusted) exact
// distance. A nil interval means the plain spatial search.
func (c *Classifier) nearest(s geom.Segment, iv *Interval, sq *spindex.SearchQuery) (cluster int, d float64) {
	prefer := func(cand, incumbent int) bool {
		return c.owner[cand] < c.owner[incumbent]
	}
	var id int
	if iv != nil && c.geo.WT > 0 && c.windows != nil {
		qiv := *iv
		id, d = sq.NearestAdjusted(s, c.eps, func(ref int) float64 {
			return c.geo.WT * qiv.Gap(c.windows[c.owner[ref]])
		}, prefer)
	} else {
		id, d = sq.Nearest(s, c.eps, prefer)
	}
	if id < 0 {
		return -1, d
	}
	return c.owner[id], d
}

// vote runs Classify's length-weighted voting loop: each query partition
// votes for the cluster owning its nearest reference segment (ties on the
// exact distance break toward the lower cluster id, keeping the assignment
// deterministic regardless of candidate enumeration order), weighted by
// partition length. ivs, when non-nil, is index-aligned with qsegs.
func (c *Classifier) vote(trID int, qsegs []geom.Segment, ivs []Interval, sq *spindex.SearchQuery) (int, float64, error) {
	if len(qsegs) == 0 {
		return -1, 0, fmt.Errorf("traclus: trajectory %d yields no partitions to classify", trID)
	}
	votes := make([]float64, c.numClusters)
	dsum := make([]float64, c.numClusters)
	for k, s := range qsegs {
		if s.IsDegenerate() {
			continue
		}
		var iv *Interval
		if ivs != nil {
			iv = &ivs[k]
		}
		cl, d := c.nearest(s, iv, sq)
		if cl < 0 {
			continue // every distance overflowed; this partition can't vote
		}
		w := s.Length()
		votes[cl] += w
		dsum[cl] += d * w
	}
	best := -1
	for i := range votes {
		if votes[i] == 0 {
			continue
		}
		if best == -1 || votes[i] > votes[best] ||
			(votes[i] == votes[best] && dsum[i]/votes[i] < dsum[best]/votes[best]) {
			best = i
		}
	}
	if best == -1 {
		return -1, 0, fmt.Errorf("traclus: trajectory %d has no classifiable partitions (degenerate or out of numeric range)", trID)
	}
	return best, dsum[best] / votes[best], nil
}

// Classifier returns the classifier over this result, building it (and its
// reference-segment index) exactly once no matter how many callers ask —
// the serving layer's model build and any later Result.Classify calls share
// this single construction.
func (r *Result) Classifier() (*Classifier, error) {
	r.clsOnce.Do(func() { r.cls, r.clsErr = NewClassifier(r) })
	return r.cls, r.clsErr
}

// Classify assigns an unseen trajectory to its nearest cluster using the
// memoized Result.Classifier. Safe for concurrent use.
func (r *Result) Classify(tr Trajectory) (clusterID int, distance float64, err error) {
	cls, err := r.Classifier()
	if err != nil {
		return -1, 0, err
	}
	return cls.Classify(tr)
}

// ClassifierSnapshot is the geometry-only, backend-agnostic description of
// a Classifier: everything NewClassifierFromSnapshot needs to rebuild a
// classifier that assigns every trajectory bit-identically to the original.
// The spatial index over the reference segments is deliberately absent —
// it is rebuilt on load from Reference and Index, which keeps the snapshot
// format independent of index internals (and lets the loader substitute a
// different backend without changing a single assignment).
type ClassifierSnapshot struct {
	// Eps is the model's ε, driving the expanding-radius nearest search.
	Eps float64
	// CostAdvantage and MinSegmentLength are the MDL partitioning
	// parameters applied to query trajectories.
	CostAdvantage    float64
	MinSegmentLength float64
	// Weights and Undirected define the distance (Weights are resolved —
	// never the zero value).
	Weights    Weights
	Undirected bool
	// Index names the spatial-index backend to rebuild with: the backend's
	// Name(), resolved on load through ParseIndexBackend.
	Index string
	// Reference holds each cluster's reference segments, indexed by
	// cluster id; concatenated in order they are exactly the segments the
	// original classifier indexed.
	Reference [][]Segment
	// Geometry names the model's geometry kind ("" and "planar" both mean
	// planar Euclidean).
	Geometry string
	// TemporalWeight is wT (spatiotemporal models only).
	TemporalWeight float64
	// Frame is the resolved equirectangular projection (geodesic models
	// only): queries project through it exactly as the training data did.
	Frame *GeoFrame
	// Windows are the per-cluster time windows, index-aligned with
	// Reference (spatiotemporal models only).
	Windows []Interval
}

// Snapshot extracts the classifier's geometry-only description. The
// round trip NewClassifierFromSnapshot(c.Snapshot()) yields a classifier
// whose Classify is bit-identical to c on every trajectory: the same
// reference segments in the same order, the same distance, the same MDL
// partitioning, and the same (named) backend.
func (c *Classifier) Snapshot() ClassifierSnapshot {
	s := ClassifierSnapshot{
		Eps:              c.eps,
		CostAdvantage:    c.part.CostAdvantage,
		MinSegmentLength: c.part.MinLength,
		Weights:          c.opts.Weights,
		Undirected:       c.opts.Undirected,
		Index:            c.index,
		Reference:        make([][]Segment, c.numClusters),
		Geometry:         c.geo.Kind.String(),
		TemporalWeight:   c.geo.WT,
	}
	if c.geo.Frame != nil {
		f := *c.geo.Frame
		s.Frame = &f
	}
	if c.windows != nil {
		s.Windows = append([]Interval(nil), c.windows...)
	}
	// owner is non-decreasing (segments were appended cluster by cluster),
	// so per-cluster append reproduces the original within-cluster order.
	for i, cl := range c.owner {
		s.Reference[cl] = append(s.Reference[cl], c.search.Segment(i))
	}
	return s
}

// NewClassifierFromSnapshot rebuilds a classifier from its geometry-only
// snapshot, constructing a fresh spatial index over the reference segments
// (one spindex build). Every cluster must contribute at least one reference
// segment; a snapshot with no clusters at all returns ErrNoClusters, like
// classifying against an empty result.
func NewClassifierFromSnapshot(s ClassifierSnapshot) (*Classifier, error) {
	if len(s.Reference) == 0 {
		return nil, ErrNoClusters
	}
	kind, ok := geometry.ParseKind(s.Geometry)
	if !ok {
		return nil, fmt.Errorf("traclus: classifier snapshot has unknown geometry %q", s.Geometry)
	}
	backend, err := ParseIndexBackend(s.Index)
	if err != nil {
		return nil, fmt.Errorf("traclus: classifier snapshot: %w", err)
	}
	c := &Classifier{
		part:        mdl.Config{CostAdvantage: s.CostAdvantage, MinLength: s.MinSegmentLength},
		eps:         s.Eps,
		numClusters: len(s.Reference),
		opts:        lsdist.Options{Weights: s.Weights, Undirected: s.Undirected},
		index:       backend.Name(),
		geo:         Geometry{Kind: kind, WT: s.TemporalWeight},
	}
	if s.Frame != nil {
		f := *s.Frame
		c.geo.Frame = &f
	}
	if field, reason := c.geo.Validate(); field != "" {
		return nil, fmt.Errorf("traclus: classifier snapshot geometry: %s %s", field, reason)
	}
	if kind == geometry.Spatiotemporal {
		if len(s.Windows) != len(s.Reference) {
			return nil, fmt.Errorf("traclus: classifier snapshot has %d cluster windows for %d clusters", len(s.Windows), len(s.Reference))
		}
		c.windows = append([]Interval(nil), s.Windows...)
	} else if len(s.Windows) != 0 {
		return nil, fmt.Errorf("traclus: classifier snapshot carries cluster windows under the %s geometry", kind)
	}
	var segs []geom.Segment
	for ci, ref := range s.Reference {
		if len(ref) == 0 {
			return nil, fmt.Errorf("traclus: classifier snapshot cluster %d has no reference segments", ci)
		}
		for _, sg := range ref {
			segs = append(segs, sg)
			c.owner = append(c.owner, ci)
		}
	}
	c.search = spindex.NewSearcher(segs, c.opts, backend)
	c.queryPool.New = c.newScratch
	return c, nil
}

// ClusterStat summarises one cluster for monitoring and serving.
type ClusterStat struct {
	// Cluster is the cluster's index in Result.Clusters.
	Cluster int `json:"cluster"`
	// Segments is the member-partition count.
	Segments int `json:"segments"`
	// Trajectories is |PTR(C)|, the distinct participating trajectories.
	Trajectories int `json:"trajectories"`
	// RepresentativePoints is the length of the representative trajectory.
	RepresentativePoints int `json:"representative_points"`
	// SSE is the cluster's term of the paper's Total SSE (Formula 11):
	// mean pairwise squared distance — a compactness measure.
	SSE float64 `json:"sse"`
}

// ClusterStats returns per-cluster statistics (sizes and the per-cluster
// SSE terms of Formula 11), index-aligned with Result.Clusters.
func (r *Result) ClusterStats() []ClusterStat {
	q := r.quality()
	stats := make([]ClusterStat, len(r.Clusters))
	for i, c := range r.Clusters {
		stats[i] = ClusterStat{
			Cluster:              i,
			Segments:             len(c.Segments),
			Trajectories:         len(c.Trajectories),
			RepresentativePoints: len(c.Representative),
			SSE:                  q.SSE(i),
		}
	}
	return stats
}

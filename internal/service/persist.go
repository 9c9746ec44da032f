package service

// Model persistence: converting a served *Model to and from the versioned
// binary snapshot of internal/snapshot. The conversion is geometry-only —
// the classifier's spatial index is rebuilt on load — and classification-
// identical: FromSnapshot(m.Snapshot()) assigns every trajectory the exact
// cluster and distance m does, pinned by TestSnapshotClassifyIdentity.

import (
	"fmt"
	"regexp"
	"time"

	traclus "repro"
	"repro/internal/dendro"
	"repro/internal/snapshot"
)

// modelName is the shared model-name rule: filesystem- and URL-safe, 1–64
// chars, no separators. The daemon validates request names against it and
// DiskStore refuses to touch files outside it.
var modelName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidModelName reports whether name may identify a model: it is the
// daemon's request rule and the disk store's filename rule, so every
// accepted name is safe to embed in both a URL path and a filename.
func ValidModelName(name string) bool { return modelName.MatchString(name) }

// ModelNamePattern returns the name rule's regular expression, for error
// messages.
func ModelNamePattern() string { return modelName.String() }

// Snapshot returns the model's serializable snapshot, computing it at most
// once (models loaded from a snapshot return the retained one, so an
// export after import is byte-stable). The error is permanent for the
// model's lifetime.
func (m *Model) Snapshot() (*snapshot.Model, error) {
	m.snapOnce.Do(func() {
		if m.snap == nil {
			m.snap, m.snapErr = m.buildSnapshot()
		}
	})
	return m.snap, m.snapErr
}

// EncodeSnapshot is Snapshot followed by the binary encoding — the bytes
// of GET /v1/models/{name}/snapshot.
func (m *Model) EncodeSnapshot() ([]byte, error) {
	sm, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	return snapshot.Encode(sm)
}

func (m *Model) buildSnapshot() (*snapshot.Model, error) {
	cfg := m.cfg
	// Serialize resolved weights: the distance the model actually used.
	dist := m.distOptions()
	w := dist.Weights
	sm := &snapshot.Model{
		Name: m.summary.Name,
		Config: snapshot.Config{
			Eps:              cfg.Eps,
			MinLns:           cfg.MinLns,
			MinTrajs:         cfg.MinTrajs,
			WPerp:            w.Perpendicular,
			WPar:             w.Parallel,
			WAngle:           w.Angle,
			Undirected:       dist.Undirected,
			CostAdvantage:    cfg.CostAdvantage,
			MinSegmentLength: cfg.MinSegmentLength,
			Gamma:            cfg.Gamma,
			Index:            cfg.Index.Name(),
		},
		Stats: snapshot.Stats{
			TotalSegments:   m.summary.TotalSegments,
			NoiseSegments:   m.summary.NoiseSegments,
			RemovedClusters: m.summary.RemovedClusters,
			Trajectories:    m.summary.Trajectories,
			Points:          m.summary.Points,
			QMeasure:        m.summary.QMeasure,
			BuiltAtUnixNano: m.summary.BuiltAt.UnixNano(),
			BuildDurationNS: int64(m.summary.BuildDuration),
		},
		// Format v4: the append epoch rides along so a restored replica
		// reports the same model version it was exported at.
		Epoch: m.summary.Epoch,
	}
	// An epoch-0 model's merge structure present at first export rides along
	// as the format v2 section. Lazily-grown dendrograms appearing after the
	// memoized snapshot is computed stay local — the export is a stable
	// artifact. An appended epoch's snapshot omits it, because re-encoding
	// the extended dendrogram write-behind on every append costs the daemon
	// memory and read latency; a model restored from such a snapshot
	// answers sweeps with ErrNoDendrogram.
	if d := m.Dendrogram(); d != nil && m.summary.Epoch == 0 {
		sm.Dendro = d.Snapshot()
	}
	// Format v3 geometry section: the resolved geometry (finishBuild folded
	// a geodesic run's frame into cfg) plus a spatiotemporal model's
	// per-cluster windows.
	g := cfg.Geometry
	sm.Geometry = g.Kind.String()
	sm.TemporalWeight = g.WT
	if g.Frame != nil {
		f := *g.Frame
		sm.Frame = &f
	}
	if g.Timed() && m.res != nil {
		sm.Windows = append([]traclus.Interval(nil), m.res.ClusterWindows()...)
	}
	cls, err := m.classifier()
	if err != nil {
		return nil, fmt.Errorf("service: snapshotting %q: %w", m.summary.Name, err)
	}
	if cls != nil {
		cs := cls.Snapshot()
		sm.Clusters = make([]snapshot.Cluster, len(m.summary.ClusterStats))
		for ci, stat := range m.summary.ClusterStats {
			sm.Clusters[ci] = snapshot.Cluster{
				Segments:       stat.Segments,
				Trajectories:   stat.Trajectories,
				SSE:            stat.SSE,
				Representative: m.res.Clusters[ci].Representative,
				Reference:      cs.Reference[ci],
			}
		}
	}
	return sm, nil
}

// FromSnapshot rebuilds a servable model from a decoded snapshot: the
// summary is reassembled from the stored statistics and the classifier is
// reconstructed over the stored reference geometry, with a fresh spatial
// index built by the named backend (exactly one spindex build). The
// returned model classifies bit-identically to the one that was saved; its
// Result() is nil. Errors are typed: an unparseable index name surfaces the
// *traclus.ConfigError.
func FromSnapshot(sm *snapshot.Model) (*Model, error) {
	backend, err := traclus.ParseIndexBackend(sm.Config.Index)
	if err != nil {
		return nil, err
	}
	geo, err := traclus.ParseGeometry(sm.Geometry)
	if err != nil {
		return nil, err
	}
	geo.WT = sm.TemporalWeight
	if sm.Frame != nil {
		f := *sm.Frame
		geo.Frame = &f
	}
	c := sm.Config
	cfg := traclus.Config{
		Eps:              c.Eps,
		MinLns:           c.MinLns,
		MinTrajs:         c.MinTrajs,
		Weights:          traclus.Weights{Perpendicular: c.WPerp, Parallel: c.WPar, Angle: c.WAngle},
		Undirected:       c.Undirected,
		CostAdvantage:    c.CostAdvantage,
		MinSegmentLength: c.MinSegmentLength,
		Gamma:            c.Gamma,
		Geometry:         geo,
		Index:            backend,
	}
	m := &Model{
		cfg:  cfg,
		snap: sm,
		summary: Summary{
			Name:            sm.Name,
			Clusters:        len(sm.Clusters),
			TotalSegments:   sm.Stats.TotalSegments,
			NoiseSegments:   sm.Stats.NoiseSegments,
			RemovedClusters: sm.Stats.RemovedClusters,
			Trajectories:    sm.Stats.Trajectories,
			Points:          sm.Stats.Points,
			Eps:             c.Eps,
			MinLns:          c.MinLns,
			QMeasure:        sm.Stats.QMeasure,
			Geometry:        geo.Kind.String(),
			TemporalWeight:  geo.WT,
			Epoch:           sm.Epoch,
			BuiltAt:         time.Unix(0, sm.Stats.BuiltAtUnixNano).UTC(),
			BuildDuration:   time.Duration(sm.Stats.BuildDurationNS),
			ClusterStats:    make([]traclus.ClusterStat, len(sm.Clusters)),
		},
	}
	// Pre-seed the memoized snapshot so a later export returns the retained
	// one without running buildSnapshot (which needs the absent Result).
	m.snapOnce.Do(func() {})

	// Format v2 carries the multi-ε merge structure; snapshots without one
	// (v1 files, models exported before their first sweep, appended epochs)
	// leave it nil and sweep queries report ErrNoDendrogram (the stored
	// reference geometry alone cannot reproduce the training segment set).
	if sm.Dendro != nil {
		den, err := dendro.FromSnapshot(sm.Dendro)
		if err != nil {
			return nil, err
		}
		m.den = den
	}

	if len(sm.Clusters) > 0 {
		cs := traclus.ClassifierSnapshot{
			Eps:              c.Eps,
			CostAdvantage:    c.CostAdvantage,
			MinSegmentLength: c.MinSegmentLength,
			Weights:          cfg.Weights,
			Undirected:       c.Undirected,
			Index:            sm.Config.Index,
			Reference:        make([][]traclus.Segment, len(sm.Clusters)),
			Geometry:         geo.Kind.String(),
			TemporalWeight:   geo.WT,
			Frame:            geo.Frame,
			Windows:          sm.Windows,
		}
		for ci, cl := range sm.Clusters {
			cs.Reference[ci] = cl.Reference
			m.summary.ClusterStats[ci] = traclus.ClusterStat{
				Cluster:              ci,
				Segments:             cl.Segments,
				Trajectories:         cl.Trajectories,
				RepresentativePoints: len(cl.Representative),
				SSE:                  cl.SSE,
			}
		}
		if m.cls, err = traclus.NewClassifierFromSnapshot(cs); err != nil {
			return nil, fmt.Errorf("service: rebuilding classifier for %q: %w", sm.Name, err)
		}
	}
	return m, nil
}

// DecodeModel decodes snapshot bytes and rebuilds the model — the receive
// side of PUT /v1/models/{name}/snapshot and of every disk read-through.
// Decode errors stay typed (*snapshot.CorruptError, *snapshot.VersionError,
// *snapshot.InvalidError).
func DecodeModel(data []byte) (*Model, error) {
	sm, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	return FromSnapshot(sm)
}

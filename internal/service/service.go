// Package service is the serving layer over the TRACLUS batch pipeline: it
// wraps a built traclus.Result into an immutable, concurrently-queryable
// Model, manages named models behind an LRU cache with single-flight build
// deduplication (Store), and tracks asynchronous build jobs (Jobs). It is
// the engine behind cmd/traclusd — the batch job builds the model once, the
// service answers online classification queries about new trajectories for
// as long as the model lives.
//
// Concurrency contract: a *Model is deeply immutable after Build returns —
// every field is written exactly once, and Classify/ClassifyBatch only read
// shared state (the classifier owns per-call scratch). A Store hands the
// same *Model to many goroutines; eviction drops the cache reference only,
// so in-flight requests holding the pointer finish safely on the evicted
// model.
package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	traclus "repro"
	"repro/internal/dendro"
	"repro/internal/par"
	"repro/internal/snapshot"
)

// Assignment is the outcome of classifying one trajectory against a model.
type Assignment struct {
	// TrajID echoes the query trajectory's id.
	TrajID int `json:"traj_id"`
	// Cluster is the assigned cluster index, or -1 on failure.
	Cluster int `json:"cluster"`
	// Distance is the length-weighted mean distance to the winning
	// cluster's representative segments.
	Distance float64 `json:"distance"`
	// Err carries a per-trajectory failure (e.g. too short to partition)
	// without failing the whole batch.
	Err string `json:"error,omitempty"`
}

// Summary is the serializable description of a model.
type Summary struct {
	Name            string  `json:"name"`
	Clusters        int     `json:"clusters"`
	TotalSegments   int     `json:"total_segments"`
	NoiseSegments   int     `json:"noise_segments"`
	RemovedClusters int     `json:"removed_clusters"`
	Trajectories    int     `json:"trajectories"`
	Points          int     `json:"points"`
	Eps             float64 `json:"eps"`
	MinLns          float64 `json:"min_lns"`
	QMeasure        float64 `json:"q_measure"`
	Geometry        string  `json:"geometry,omitempty"`
	TemporalWeight  float64 `json:"wt,omitempty"`
	// Epoch counts the incremental appends absorbed since the from-scratch
	// build: 0 for a fresh batch build, incremented by every Model.Append.
	// It versions the model's state — a client that remembers the epoch of
	// its last read can tell whether a later response reflects newer data.
	Epoch         int64                 `json:"epoch"`
	BuiltAt       time.Time             `json:"built_at"`
	BuildDuration time.Duration         `json:"build_duration_ns"`
	ClusterStats  []traclus.ClusterStat `json:"cluster_stats"`
}

// Model is an immutable snapshot of one built clustering plus everything
// needed to serve it: the classifier and precomputed summary statistics.
// All fields are written once inside Build; afterwards the model is safe
// for unlimited concurrent reads.
type Model struct {
	summary Summary
	res     *traclus.Result // nil for models loaded from a snapshot
	// cls is a snapshot-loaded model's classifier (nil when it has no
	// clusters). A built or appended model's is res.Classifier().
	cls *traclus.Classifier

	// Incremental growth: ap is the appender the model was built through
	// and lin the lineage every epoch of this model shares. Both are nil
	// for snapshot-loaded models — their training geometry is gone, so
	// Append returns ErrNotAppendable. See append.go in this package.
	ap  *traclus.Appender
	lin *lineage

	// cfg is the resolved build configuration (estimation already folded
	// into Eps/MinLns). The snapshot layer serializes it so a loaded model
	// classifies under the exact parameters it was built with.
	cfg traclus.Config

	// Snapshot memoization: models loaded from a snapshot retain it (snap
	// set before publication); built models compute theirs once on first
	// export. See persist.go.
	snapOnce sync.Once
	snap     *snapshot.Model
	snapErr  error

	// Multi-ε merge structure (internal/dendro) of a snapshot-restored
	// model, behind its sweep/clusters queries: set from a v2+ snapshot
	// before publication, widened under dmu by a later wider query. A built
	// or appended model keeps its dendrogram on its Result instead
	// (traclus.Result.DendrogramAt) and leaves den nil. See sweep.go.
	dmu sync.Mutex
	den *dendro.Dendrogram
}

// EstimateRange requests §4.4 parameter estimation inside a build: Eps and
// MinLns are chosen by the entropy heuristic searched over ε ∈ [Lo, Hi],
// sharing the build's single spatial index with the grouping phase instead
// of paying a second index construction and neighborhood sweep the way a
// separate Pipeline.Estimate call would.
type EstimateRange struct {
	Lo, Hi float64
}

// BuildCtx runs the full TRACLUS pipeline over the training trajectories
// and wraps the result as a servable model. It validates cfg up front (a
// *traclus.ConfigError maps to a client error in the daemon) and precomputes
// the summary statistics so serving reads never trigger O(n²) work. A model
// whose clustering found no clusters is still valid — its summary reports
// zero clusters and Classify returns traclus.ErrNoClusters.
//
// A done ctx aborts the clustering within one work item and surfaces
// ctx.Err() (match with errors.Is against context.Canceled — the daemon
// maps it to a cancelled job, not a failed one). est, if non-nil,
// estimates Eps/MinLns during the build (cfg.Eps and cfg.MinLns are
// ignored; the summary reports the chosen values). progress, if non-nil,
// receives the pipeline's phase/fraction stream (serialized, monotone per
// phase) so an async build job can report live progress to pollers.
//
// A model build constructs exactly one spatial index per dataset it
// indexes: one over the pooled trajectory partitions (shared by estimation
// and grouping) and one over the reference segments behind the classifier
// (memoized on the result, so later Result.Classify calls reuse it too).
// The build-count test pins this.
func BuildCtx(ctx context.Context, name string, trs []traclus.Trajectory, cfg traclus.Config, est *EstimateRange, progress func(phase string, fraction float64)) (*Model, error) {
	start := time.Now()
	// Building through the appender keeps the model growable: the result is
	// bit-identical to Pipeline.Run (the append equivalence suite pins the
	// initial build), and the retained appender lets Model.Append extend the
	// clustering in O(Δ) instead of rebuilding.
	ap, err := traclus.New(buildOptions(cfg, est, progress)...).NewAppender(ctx, trs)
	if err != nil {
		return nil, err
	}
	return finishBuild(name, ap, cfg, len(trs), pointCount(trs), start)
}

// buildOptions assembles the pipeline options of a model build.
func buildOptions(cfg traclus.Config, est *EstimateRange, progress func(phase string, fraction float64)) []traclus.Option {
	opts := []traclus.Option{traclus.WithConfig(cfg)}
	if est != nil {
		opts = append(opts, traclus.WithEstimation(est.Lo, est.Hi))
	}
	if progress != nil {
		opts = append(opts, traclus.WithProgress(func(ev traclus.ProgressEvent) {
			progress(ev.Phase.String(), ev.Fraction)
		}))
	}
	return opts
}

// finishBuild wraps a completed appender build as a servable model:
// estimated parameters and the resolved geometry (a geodesic run's
// projection frame) fold into the persisted config, and the summary
// statistics precompute so serving reads never trigger O(n²) work. An auto
// build's dendrogram stays on res, where sweeps find it and the snapshot
// persists it as format v2.
func finishBuild(name string, ap *traclus.Appender, cfg traclus.Config, trajectories, points int, start time.Time) (*Model, error) {
	res := ap.Result()
	if res.Estimated != nil {
		cfg.Eps = res.Estimated.Eps
		cfg.MinLns = float64(res.Estimated.MinLnsLo+res.Estimated.MinLnsHi) / 2
	}
	cfg.Geometry = res.Geometry()
	m := &Model{
		res: res,
		ap:  ap,
		cfg: cfg,
		summary: Summary{
			Name:            name,
			Clusters:        len(res.Clusters),
			TotalSegments:   res.TotalSegments,
			NoiseSegments:   res.NoiseSegments,
			RemovedClusters: res.RemovedClusters,
			Trajectories:    trajectories,
			Points:          points,
			Eps:             cfg.Eps,
			MinLns:          cfg.MinLns,
			QMeasure:        res.QMeasure(),
			Geometry:        cfg.Geometry.Kind.String(),
			TemporalWeight:  cfg.Geometry.WT,
			ClusterStats:    res.ClusterStats(),
		},
	}
	if len(res.Clusters) > 0 {
		// The memoized accessor shares one classifier (and one
		// reference-segment index) between the model and any direct
		// Result.Classify callers — never two builds over the same dataset.
		if _, err := res.Classifier(); err != nil {
			return nil, fmt.Errorf("service: building classifier for %q: %w", name, err)
		}
	}
	m.summary.BuiltAt = time.Now().UTC()
	m.summary.BuildDuration = time.Since(start)
	m.lin = &lineage{head: m}
	return m, nil
}

// Name returns the model's name.
func (m *Model) Name() string { return m.summary.Name }

// Summary returns the model's precomputed statistics (a copy; the shared
// ClusterStats slice must be treated as read-only).
func (m *Model) Summary() Summary { return m.summary }

// Result exposes the underlying clustering (read-only by convention). It is
// nil for models loaded from a snapshot: the clustering's full member
// geometry is not serialized, only what classification needs.
func (m *Model) Result() *traclus.Result { return m.res }

// Config returns the resolved build configuration (estimated Eps/MinLns
// already substituted).
func (m *Model) Config() traclus.Config { return m.cfg }

// classifier resolves the model's classifier: the result's memoized one,
// which finishBuild builds for a fresh model and an appended epoch builds
// on first use (so the append path itself builds zero indexes), or a
// snapshot-loaded model's. nil with a nil error means the clustering has no
// clusters to classify against.
func (m *Model) classifier() (*traclus.Classifier, error) {
	if m.res == nil || len(m.res.Clusters) == 0 {
		return m.cls, nil
	}
	return m.res.Classifier()
}

// Classify assigns one trajectory to its nearest cluster under the model's
// geometry: a spatiotemporal model classifies trajectories that carry
// Times against the persisted cluster windows (see traclus.Classifier).
func (m *Model) Classify(tr traclus.Trajectory) (clusterID int, distance float64, err error) {
	cls, err := m.classifier()
	if err != nil {
		return -1, 0, err
	}
	if cls == nil {
		return -1, 0, traclus.ErrNoClusters
	}
	return cls.Classify(tr)
}

// ClassifyBatch classifies many trajectories, fanned out across workers
// (≤ 0 = all CPUs) via the repo-wide par pool. Per-trajectory failures are
// reported in the corresponding Assignment rather than aborting the batch;
// once ctx is done the remaining items are marked with the context error
// without computing anything.
func (m *Model) ClassifyBatch(ctx context.Context, trs []traclus.Trajectory, workers int) []Assignment {
	out := make([]Assignment, len(trs))
	par.ForEach(workers, len(trs), func(_, i int) {
		out[i] = Assignment{TrajID: trs[i].ID, Cluster: -1}
		if err := ctx.Err(); err != nil {
			out[i].Err = err.Error()
			return
		}
		cl, d, err := m.Classify(trs[i])
		if err != nil {
			out[i].Err = err.Error()
			return
		}
		out[i].Cluster, out[i].Distance = cl, d
	})
	return out
}

// Package core wires the three TRACLUS phases together (Figure 4 of the
// paper): MDL partitioning of every trajectory, density-based clustering of
// the pooled line segments, and representative-trajectory generation per
// cluster. It is the engine behind the public traclus package.
//
// All three phases are parallel across Config.Workers goroutines
// (trajectories, ε-neighborhood queries, and clusters respectively are
// independent units of work), and every phase writes into pre-sized,
// index-aligned slots, so the output is bit-identical for every worker
// count — the serial path is just the one-worker special case.
package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/geometry"
	"repro/internal/lsdist"
	"repro/internal/mdl"
	"repro/internal/par"
	"repro/internal/segclust"
	"repro/internal/spindex"
	"repro/internal/sweep"
)

// Config carries the parameters of all three phases.
type Config struct {
	// Eps and MinLns are the two clustering parameters of the paper.
	Eps    float64
	MinLns float64
	// MinTrajs overrides the trajectory-cardinality threshold (0 = MinLns).
	MinTrajs int
	// Partition controls the MDL partitioning phase.
	Partition mdl.Config
	// Distance carries the weights and directedness of the distance.
	Distance lsdist.Options
	// Backend is the spindex backend (the zero value is the grid). The same
	// backend serves every phase that indexes segments: parameter
	// estimation, ε-neighborhood grouping, and the classifier's
	// reference-segment index.
	Backend spindex.Backend
	// Gamma is the sweep smoothing parameter γ; 0 defaults to Eps/4.
	Gamma float64
	// Geometry selects the distance mode (planar Euclidean, spatiotemporal,
	// geodesic). The zero value is planar — the exact pre-geometry path.
	Geometry geometry.Geometry
	// Workers bounds the parallelism of every phase — MDL partitioning,
	// ε-neighborhood precomputation, and per-cluster representative sweeps
	// (≤ 0 = all CPUs). Results are bit-identical for every worker count.
	Workers int
}

// DefaultConfig returns a configuration with the paper's default distance
// weights and a grid index; Eps and MinLns must still be set (or found via
// internal/params).
func DefaultConfig() Config {
	return Config{Distance: lsdist.DefaultOptions()}
}

// ResolvedBackend returns Backend unchanged: the zero value already is the
// grid. cmd/traclusbench/probe.go still calls it.
func (c Config) ResolvedBackend() spindex.Backend { return c.Backend }

// EffectiveGamma resolves the sweep smoothing parameter: Gamma when set,
// otherwise the paper's Eps/4 default.
func (c Config) EffectiveGamma() float64 {
	if c.Gamma > 0 {
		return c.Gamma
	}
	return c.Eps / 4
}

// Cluster describes one discovered cluster at the trajectory level.
type Cluster struct {
	// Segments are the member trajectory partitions.
	Segments []geom.Segment
	// Members indexes into Output.Items.
	Members []int
	// Trajectories is the sorted set of participating trajectory ids
	// (PTR, Definition 10).
	Trajectories []int
	// Representative is the cluster's representative trajectory — the
	// common sub-trajectory. It may be nil when the cluster is too compact
	// for two sweep points to survive the γ filter.
	Representative []geom.Point
}

// Output is the full result of a TRACLUS run.
type Output struct {
	// Items are the pooled trajectory partitions fed to clustering.
	Items []segclust.Item
	// Result is the raw segment-clustering outcome.
	Result *segclust.Result
	// Clusters pairs each cluster with its representative trajectory.
	Clusters []Cluster
}

// NumClusters returns the number of clusters that survived the
// trajectory-cardinality filter.
func (o *Output) NumClusters() int { return len(o.Clusters) }

// AvgSegmentsPerCluster returns the mean cluster size in segments (0 when
// there are no clusters) — the statistic of Section 5.4.
func (o *Output) AvgSegmentsPerCluster() float64 {
	if len(o.Clusters) == 0 {
		return 0
	}
	total := 0
	for _, c := range o.Clusters {
		total += len(c.Members)
	}
	return float64(total) / float64(len(o.Clusters))
}

// PartitionAll runs the MDL partitioning phase over all trajectories in
// parallel (a mdl.PartitionAll worker pool with per-worker scratch) and
// pools the resulting segments as clusterable items (Figure 4, lines 1–3).
// Trajectory weights default to 1 when unset.
func PartitionAll(trs []geom.Trajectory, cfg Config) []segclust.Item {
	items, _ := PartitionAllCtx(context.Background(), trs, cfg, nil)
	return items
}

// PartitionAllCtx is PartitionAll with cooperative cancellation and an
// optional per-trajectory completion hook (invoked from worker goroutines;
// used by the public Pipeline to stream phase progress). A non-nil error is
// always ctx.Err(); the partial partitioning is discarded. Items of a timed
// trajectory carry the time span of their partition.
func PartitionAllCtx(ctx context.Context, trs []geom.Trajectory, cfg Config, onTrajectory func()) ([]segclust.Item, error) {
	perTraj, spans, err := mdl.PartitionAllCtx(ctx, trs, cfg.Partition, cfg.Workers, onTrajectory)
	if err != nil {
		return nil, err
	}
	var items []segclust.Item
	for i, segs := range perTraj {
		w := trs[i].Weight
		if w == 0 {
			w = 1
		}
		for k, s := range segs {
			it := segclust.Item{Seg: s, TrajID: trs[i].ID, Weight: w}
			if spans[i] != nil {
				it.Span = spans[i][k]
			}
			items = append(items, it)
		}
	}
	return items, nil
}

// ValidateTrajectories reports the first invalid input trajectory, wrapped
// with the package prefix.
func ValidateTrajectories(trs []geom.Trajectory) error {
	for i := range trs {
		if err := trs[i].Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// Segclust projects the engine configuration onto the grouping phase's
// Config, Backend included, so every layer resolves the same index backend.
func (c Config) Segclust() segclust.Config {
	return segclust.Config{
		Eps:      c.Eps,
		MinLns:   c.MinLns,
		MinTrajs: c.MinTrajs,
		Options:  c.Distance,
		Backend:  c.Backend,
		Workers:  c.Workers,
	}
}

// AssembleCtx runs the representative phase over a grouping and assembles
// the full Output: per cluster, the member segments and weights are
// gathered and the §4.3 sweep under cfg.MinLns and EffectiveGamma builds the
// representative, fanned across cfg.Workers with each cluster writing only
// its own slot. onCluster, if non-nil, is invoked once per completed
// cluster (possibly from worker goroutines), so callers can stream progress
// between the phases.
//
// prev is an earlier epoch's Output under the same cfg over a prefix of
// items, or nil for a build: a cluster whose member list equals one of
// prev's keeps prev's gathered segments and representative — the sweep is a
// deterministic function of members, weights, MinLns and γ, none of which
// changed — so an append that touches k clusters sweeps k, and a build,
// with no earlier epoch, sweeps every cluster. Clusters are matched by first
// member: member lists are ascending and epochs share the item numbering,
// so equal first members and equal lists mean the same cluster.
func AssembleCtx(ctx context.Context, items []segclust.Item, res *segclust.Result, cfg Config, prev *Output, onCluster func()) (*Output, error) {
	var prevByFirst map[int]int
	if prev != nil {
		prevByFirst = make(map[int]int, len(prev.Clusters))
		for pi, pc := range prev.Clusters {
			prevByFirst[pc.Members[0]] = pi
		}
	}
	out := &Output{Items: items, Result: res, Clusters: make([]Cluster, len(res.Clusters))}
	swCfg := sweep.Config{MinLns: cfg.MinLns, Gamma: cfg.EffectiveGamma()}
	err := par.ForEachCtx(ctx, cfg.Workers, len(res.Clusters), func(_, ci int) {
		c := res.Clusters[ci]
		cl := Cluster{Members: c.Members, Trajectories: c.Trajectories}
		if pi, ok := prevByFirst[c.Members[0]]; ok && slices.Equal(prev.Clusters[pi].Members, c.Members) {
			cl.Segments, cl.Representative = prev.Clusters[pi].Segments, prev.Clusters[pi].Representative
		} else {
			cl.Segments = make([]geom.Segment, len(c.Members))
			weights := make([]float64, len(c.Members))
			for i, m := range c.Members {
				cl.Segments[i] = items[m].Seg
				weights[i] = items[m].Weight
			}
			cl.Representative = sweep.Representative(cl.Segments, weights, swCfg)
		}
		out.Clusters[ci] = cl
		if onCluster != nil {
			onCluster()
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

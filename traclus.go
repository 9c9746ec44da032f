// Package traclus implements TRACLUS, the trajectory clustering algorithm
// of Lee, Han, and Whang ("Trajectory Clustering: A Partition-and-Group
// Framework", SIGMOD 2007).
//
// TRACLUS discovers common sub-trajectories: instead of clustering whole
// trajectories, it (1) partitions every trajectory into line segments at
// characteristic points chosen by the minimum description length principle,
// (2) groups similar segments with a density-based clustering algorithm
// under a three-component segment distance (perpendicular + parallel +
// angle), and (3) summarises each cluster with a sweep-line representative
// trajectory.
//
// Quickstart:
//
//	trs := []traclus.Trajectory{ ... }
//	p := traclus.New(traclus.WithConfig(traclus.Config{Eps: 30, MinLns: 6}))
//	out, err := p.Run(ctx, trs)
//	for _, c := range out.Clusters {
//		fmt.Println(c.Representative) // a common sub-trajectory
//	}
//
// The Pipeline is the one entrypoint: Run(ctx, trs) is cancellable and
// streams progress through WithProgress, and NewAppender is the same build
// kept open for appends — see pipeline.go. Every parameter, the index
// backend, the worker count and the geometry included, is a Config field
// set through WithConfig.
//
// When ε and MinLns are unknown, Pipeline.Estimate applies the paper's
// entropy-minimisation heuristic (Section 4.4), and WithEstimation runs it
// inside a build.
package traclus

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dendro"
	"repro/internal/geom"
	"repro/internal/geometry"
	"repro/internal/lsdist"
	"repro/internal/mdl"
	"repro/internal/params"
	"repro/internal/quality"
	"repro/internal/segclust"
	"repro/internal/spindex"
)

// Re-exported geometric types. A Trajectory is a sequence of points with an
// ID (used by the trajectory-cardinality filter), an optional Weight
// (weighted-trajectory extension) and optional per-point Times (the
// spatiotemporal extension).
type (
	Point      = geom.Point
	Segment    = geom.Segment
	Trajectory = geom.Trajectory
	Rect       = geom.Rect
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewTrajectory builds a unit-weight trajectory.
func NewTrajectory(id int, pts []Point) Trajectory { return geom.NewTrajectory(id, pts) }

// Weights are the distance component multipliers w⊥, w∥, wθ.
type Weights = lsdist.Weights

// IndexBackend names the spatial index behind every ε-neighborhood and
// nearest-representative query: one build per dataset (the pooled
// trajectory partitions; a model's reference segments), then any number of
// concurrent queries. The set is closed — GridIndexBackend,
// RTreeIndexBackend and BruteIndexBackend — and the zero value is the grid.
// See the "Index layer" section of ARCHITECTURE.md.
type IndexBackend = spindex.Backend

// GridIndexBackend returns the uniform-grid backend, the default: the zero
// IndexBackend is the grid.
func GridIndexBackend() IndexBackend { return spindex.Grid() }

// RTreeIndexBackend returns the R-tree backend.
func RTreeIndexBackend() IndexBackend { return spindex.RTree() }

// BruteIndexBackend returns the exhaustive-scan backend, the Lemma 3 O(n²)
// baseline.
func BruteIndexBackend() IndexBackend { return spindex.Brute() }

// ParseIndexBackend maps a user-facing backend name — "grid", "rtree",
// "brute" (aliases "scan", "none") — to its IndexBackend. It is the one
// name table: flags, requests and snapshots resolve through it, and each
// built-in backend's Name() is its canonical entry. Unknown names return a
// *ConfigError, which serving layers surface as HTTP 400.
func ParseIndexBackend(s string) (IndexBackend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "grid":
		return GridIndexBackend(), nil
	case "rtree":
		return RTreeIndexBackend(), nil
	case "brute", "scan", "none":
		return BruteIndexBackend(), nil
	}
	return IndexBackend{}, &ConfigError{Field: "Index", Value: s, Reason: `must be one of "grid", "rtree", "brute"`}
}

// Geometry selects the coordinate frame and distance semantics of a run:
// planar Euclidean (the zero value, the paper's setting), spatiotemporal
// (a fourth distance component wT·dT over per-point timestamps — Section
// 7.1 item 5), or geodesic (lat/lon degrees projected through a
// dataset-derived equirectangular frame into meters). See PlanarGeometry,
// SpatiotemporalGeometry, GeodesicGeometry, and the "Geometry layer"
// section of ARCHITECTURE.md.
type Geometry = geometry.Geometry

// GeoFrame is the equirectangular projection frame a geodesic run resolves
// from its data bounds (and a snapshot persists), mapping lat/lon degrees
// to meters in the model's working plane and back.
type GeoFrame = geometry.Frame

// Interval is a closed time interval.
type Interval = geometry.Interval

// PlanarGeometry returns the default geometry: planar Euclidean, exactly
// the paper's setting. A Config with this geometry is bit-identical to one
// with the zero Geometry value.
func PlanarGeometry() Geometry { return geometry.NewPlanar() }

// SpatiotemporalGeometry returns the spatiotemporal geometry with temporal
// weight wT: the clustering distance gains wT·dT, where dT is the gap
// between two segments' time intervals (zero when they overlap). wT = 0
// reduces bit-identically to planar. Runs under this geometry take
// trajectories that carry Times, and only those.
func SpatiotemporalGeometry(wt float64) Geometry { return geometry.NewSpatiotemporal(wt) }

// GeodesicGeometry returns the geodesic geometry for lat/lon input
// (X = longitude, Y = latitude, degrees): the run derives an
// equirectangular frame from the data bounds, projects every point to
// meters, and clusters in that working plane, so Eps and MinSegmentLength
// are in meters. The resolved frame rides the Result (and its snapshot) so
// queries project identically.
func GeodesicGeometry() Geometry { return geometry.NewGeodesic() }

// ParseGeometry maps a user-facing geometry name — "planar" (aliases
// "euclidean", "xy", ""), "spatiotemporal" (aliases "st", "temporal"),
// "geodesic" (aliases "latlon", "gps") — to its Geometry. The
// spatiotemporal weight defaults to 0 (set it with Config.Geometry.WT or
// SpatiotemporalGeometry). Unknown names return a *ConfigError, which
// serving layers surface as HTTP 400.
func ParseGeometry(s string) (Geometry, error) {
	kind, ok := geometry.ParseKind(s)
	if !ok {
		return Geometry{}, &ConfigError{Field: "Geometry", Value: s,
			Reason: `must be one of "planar", "spatiotemporal", "geodesic"`}
	}
	return Geometry{Kind: kind}, nil
}

// Config holds the user-facing TRACLUS parameters.
type Config struct {
	// Eps is the ε-neighborhood radius (same units as the coordinates).
	Eps float64
	// MinLns is the core-segment density threshold; with weighted
	// trajectories it is compared against the summed weights.
	MinLns float64
	// MinTrajs is the minimum number of distinct trajectories per cluster
	// (Definition 10); 0 uses MinLns, as in the paper: a cluster drawn from
	// fewer than MinLns trajectories is removed.
	MinTrajs int
	// Weights override the distance weights; the zero value means the
	// paper's default w⊥ = w∥ = wθ = 1.
	Weights Weights
	// Undirected ignores segment direction in the angle distance.
	Undirected bool
	// CostAdvantage suppresses partitioning (Section 4.1.3); 0 reproduces
	// Figure 8 exactly, positive values lengthen partitions.
	CostAdvantage float64
	// MinSegmentLength drops trajectory partitions shorter than this.
	// Short segments have low directional strength and can induce
	// over-clustering (Section 4.1.3, Figure 11); 0 keeps everything.
	MinSegmentLength float64
	// Gamma is the representative-trajectory smoothing parameter γ;
	// 0 defaults to Eps/4.
	Gamma float64
	// Geometry selects the coordinate frame and distance semantics; the
	// zero value is planar Euclidean, bit-identical to every release before
	// the geometry layer existed. See PlanarGeometry, SpatiotemporalGeometry,
	// GeodesicGeometry.
	Geometry Geometry
	// Index is the spatial-index backend behind every ε-neighborhood and
	// nearest-representative query: parameter estimation, grouping, and
	// the classifier built over the result. The zero value is the grid.
	// The backend only makes queries cheaper (Lemma 3): every backend gives
	// the same clustering.
	Index IndexBackend
	// Workers bounds the parallelism of the whole pipeline: MDL
	// partitioning fans out across trajectories, ε-neighborhood
	// precomputation across segments, and representative generation across
	// clusters. ≤ 0 (the default) uses every CPU; 1 runs every phase on one
	// goroutine. It only sets the degree of parallelism: the result is
	// bit-identical for every worker count — cluster membership, noise
	// counts, and representatives do not depend on scheduling. Grouping
	// caches every ε-neighborhood up front at every worker count, 4 bytes
	// per neighbor entry (O(Σ|Nε|) memory).
	Workers int
}

// ConfigError is the typed error returned when a Config field is invalid
// (NaN, infinite, negative, …). Serving layers match it with errors.As to
// distinguish caller mistakes from internal failures.
type ConfigError = segclust.ConfigError

// Validate reports the first invalid Config field as a *ConfigError. NaN
// and ±Inf are rejected everywhere: they would otherwise slip through
// simple sign checks (NaN compares false against any threshold) and poison
// the clustering into an all-noise result.
func (c Config) Validate() error {
	if err := segclust.CheckPositive("Eps", c.Eps); err != nil {
		return err
	}
	if err := segclust.CheckPositive("MinLns", c.MinLns); err != nil {
		return err
	}
	return c.ValidateForEstimation()
}

// ValidateForEstimation validates every Config field except Eps and MinLns
// — the two parameters estimation (Pipeline.Estimate, WithEstimation)
// exists to find — with the same typed *ConfigError Pipeline.Run would
// return, so a NaN weight or a negative CostAdvantage is rejected without
// demanding the two parameters the search is for. Serving layers use it to vet
// auto-estimated builds up front.
func (c Config) ValidateForEstimation() error {
	if c.MinTrajs < 0 {
		return &ConfigError{Field: "MinTrajs", Value: c.MinTrajs, Reason: "must be non-negative"}
	}
	if (c.Weights != Weights{}) && !c.Weights.Valid() {
		return &ConfigError{Field: "Weights", Value: c.Weights,
			Reason: "must be finite and non-negative with at least one positive component"}
	}
	if err := segclust.CheckNonNegative("CostAdvantage", c.CostAdvantage); err != nil {
		return err
	}
	if err := segclust.CheckNonNegative("MinSegmentLength", c.MinSegmentLength); err != nil {
		return err
	}
	if field, reason := c.Geometry.Validate(); field != "" {
		return &ConfigError{Field: "Geometry." + field, Value: c.Geometry, Reason: reason}
	}
	return segclust.CheckNonNegative("Gamma", c.Gamma)
}

// ValidateEstimationRange reports an ε search range [lo, hi] that breaks the
// one range rule, 0 < lo < hi ≤ MaxFloat64/2, as a *ConfigError with Field
// "Estimation". NaN and ±Inf bounds fail it. WithEstimation runs and
// Pipeline.Estimate apply it before partitioning anything; serving layers
// use it to reject a bad auto range synchronously.
func ValidateEstimationRange(lo, hi float64) error {
	if params.CheckRange(lo, hi) != nil {
		return &ConfigError{Field: "Estimation", Value: [2]float64{lo, hi},
			Reason: "must satisfy " + params.RangeRule}
	}
	return nil
}

func (c Config) core() core.Config {
	w := c.Weights
	if (w == Weights{}) {
		w = lsdist.DefaultWeights()
	}
	return core.Config{
		Eps:       c.Eps,
		MinLns:    c.MinLns,
		MinTrajs:  c.MinTrajs,
		Partition: mdl.Config{CostAdvantage: c.CostAdvantage, MinLength: c.MinSegmentLength},
		Distance:  lsdist.Options{Weights: w, Undirected: c.Undirected},
		Geometry:  c.Geometry,
		Backend:   c.Index,
		Gamma:     c.Gamma,
		Workers:   c.Workers,
	}
}

// Cluster is one discovered group of trajectory partitions together with
// its representative trajectory (the common sub-trajectory).
type Cluster struct {
	// Segments are the member trajectory partitions.
	Segments []Segment
	// Trajectories is the sorted list of participating trajectory IDs.
	Trajectories []int
	// Representative is the cluster's representative trajectory; nil when
	// no stable sweep points exist.
	Representative []Point
}

// Result is the outcome of a TRACLUS run.
type Result struct {
	// Clusters in deterministic discovery order.
	Clusters []Cluster
	// NoiseSegments counts partitions classified as noise.
	NoiseSegments int
	// TotalSegments counts all partitions produced by the first phase.
	TotalSegments int
	// RemovedClusters counts density-connected sets rejected by the
	// trajectory-cardinality filter.
	RemovedClusters int
	// Estimated reports the §4.4 parameter estimate when the run chose its
	// own Eps/MinLns (a Pipeline built WithEstimation); nil otherwise.
	Estimated *Estimate

	out *core.Output
	cfg core.Config

	// Multi-ε merge structure behind Dendrogram and DendrogramAt: set by
	// estimation runs (the annealer's by-product), extended from the
	// previous epoch's by an append, or built on first use. den holds the
	// widest one so far; dmu serialises the builds.
	dmu sync.Mutex
	den atomic.Pointer[dendro.Dendrogram]

	// windows are the per-cluster time windows of a spatiotemporal run,
	// index-aligned with Clusters; nil under every other geometry.
	windows []Interval

	// Lazily-built classifier behind Result.Classify; see classify.go.
	clsOnce sync.Once
	cls     *Classifier
	clsErr  error

	// Formula 11 state behind ClusterStats, NoisePenalty and QMeasure,
	// computed once on first use. qbase is the previous epoch's state when
	// an append found it already computed; the first use advances from it
	// instead of scoring every pair, then drops it.
	qOnce sync.Once
	q     atomic.Pointer[quality.State]
	qbase *quality.State
}

// Items returns the pooled partitioned segments the grouping ran over, in
// their canonical order (the order ClusterOf and dendrogram cuts index
// into); a spatiotemporal run's items carry their time spans. The slice is
// the result's own backing store — do not mutate.
func (r *Result) Items() []Item { return r.out.Items }

// Dendrogram returns the multi-ε merge structure the Result holds, or nil:
// auto-estimation runs precompute it for the annealing search, an append
// extends the previous epoch's, and DendrogramAt builds one on demand.
// Non-nil, it answers exact clusterings at any ε up to its MaxEps via
// CutAt, with zero further distance computations.
func (r *Result) Dendrogram() *dendro.Dendrogram { return r.den.Load() }

// DendrogramAt returns a merge structure that answers every ε ≤ maxEps: the
// one the Result holds when it reaches that far, otherwise a new one over
// Items() under the run's own distance, index backend and geometry — a
// spatiotemporal run's per-item intervals and wT included — which the
// Result then keeps. Concurrent calls serialise their builds, and later
// calls reuse the widest structure built so far. A maxEps that is not
// positive and finite returns a *ConfigError.
func (r *Result) DendrogramAt(ctx context.Context, maxEps float64) (*dendro.Dendrogram, error) {
	if err := segclust.CheckPositive("Eps", maxEps); err != nil {
		return nil, err
	}
	if d := r.den.Load(); d != nil && d.MaxEps() >= maxEps {
		return d, nil
	}
	r.dmu.Lock()
	defer r.dmu.Unlock()
	if d := r.den.Load(); d != nil && d.MaxEps() >= maxEps {
		return d, nil
	}
	d, err := dendro.FromShared(ctx, sharedIndex(r.out.Items, r.cfg), maxEps, r.cfg.Workers)
	if err != nil {
		return nil, err
	}
	r.den.Store(d)
	return d, nil
}

// Geometry returns the geometry the run resolved: the configured geometry,
// with a geodesic run's projection frame filled in from the data bounds.
func (r *Result) Geometry() Geometry { return r.cfg.Geometry }

// ClusterWindows returns the per-cluster time windows of a spatiotemporal
// run, index-aligned with Clusters (each window is the smallest interval
// covering every member segment's span); nil under every other geometry.
func (r *Result) ClusterWindows() []Interval { return r.windows }

func newResult(out *core.Output, ccfg core.Config) *Result {
	res := &Result{
		NoiseSegments:   out.Result.NoiseCount(),
		TotalSegments:   len(out.Items),
		RemovedClusters: out.Result.Removed,
		out:             out,
		cfg:             ccfg,
	}
	for _, c := range out.Clusters {
		res.Clusters = append(res.Clusters, Cluster{
			Segments:       c.Segments,
			Trajectories:   c.Trajectories,
			Representative: c.Representative,
		})
	}
	if ccfg.Geometry.Timed() {
		res.windows = clusterWindows(out)
	}
	return res
}

// DistCalls returns the number of candidate pairs the grouping phase
// refined, Σ|candidates(i)|, each unordered pair scored once — the
// index-efficiency metric of Lemma 3. The index hands each segment only the
// candidates it scores, and the count is derived from those, exactly, since
// the candidate relation is symmetric. It is deterministic for a given input
// and configuration, independent of Config.Workers. An auto build
// (WithEstimation) reads its within-ε pairs from the estimation dendrogram
// and charges its candidates through a count-only pass, so the count is the
// one a scored grouping at the same ε reports, although no pair is scored.
func (r *Result) DistCalls() int { return r.out.Result.DistCalls }

// QMeasure evaluates the paper's clustering quality measure (Formula 11:
// total SSE plus noise penalty) for this result. Smaller is better. It
// equals the sum of the ClusterStats SSEs, in cluster order, plus
// NoisePenalty.
func (r *Result) QMeasure() float64 { return r.quality().Breakdown().QMeasure() }

// NoisePenalty returns the noise term of Formula 11: the SSE form applied
// to the set of noise segments.
func (r *Result) NoisePenalty() float64 { return r.quality().Breakdown().NoisePenalty }

// QualityPairs returns how many pair distances computing the result's
// Formula 11 terms scored: every within-group pair for a batch run; after
// an append whose previous Result had its quality computed, only the pairs
// whose co-membership changed (or a group's full triangle, where that is
// fewer).
func (r *Result) QualityPairs() int { return r.quality().Pairs() }

// quality returns the result's Formula 11 state, computing it on first use
// — advanced from the previous epoch's state when an append left one.
// ClusterStats, NoisePenalty and QMeasure all read it, so the O(Σ|C|²)
// pairwise pass runs at most once per Result.
func (r *Result) quality() *quality.State {
	r.qOnce.Do(func() {
		// A background context never ends the pass early.
		q, _ := r.qbase.Next(context.Background(), r.out.Items, r.out.Result, r.cfg.Distance, r.cfg.Workers)
		r.q.Store(q)
		r.qbase = nil
	})
	return r.q.Load()
}

// Partition exposes phase one alone: the MDL-chosen characteristic points
// of a single trajectory, as indices into its points.
func Partition(tr Trajectory, costAdvantage float64) []int {
	return mdl.ApproximatePartition(tr.Dedup().Points, mdl.Config{CostAdvantage: costAdvantage})
}

// PartitionSegments exposes phase one as segments.
func PartitionSegments(tr Trajectory, costAdvantage float64) []Segment {
	return mdl.Partition(tr, mdl.Config{CostAdvantage: costAdvantage})
}

// Distance returns the TRACLUS line-segment distance with default weights —
// useful for custom tooling on top of the library.
func Distance(a, b Segment) float64 { return lsdist.Dist(a, b) }

// Estimate is the outcome of the parameter heuristic.
type Estimate struct {
	Eps          float64 // entropy-minimising ε
	Entropy      float64 // H(X) at that ε
	AvgNeighbors float64 // avg|Nε(L)|
	MinLnsLo     int     // suggested MinLns range (avg+1 .. avg+3)
	MinLnsHi     int
}

// DefaultEstimationRange derives an ε search interval for the Section 4.4
// heuristic from the data extent: hi is one tenth of the bounding
// rectangle's margin (floor 10), lo is hi/60. It is the defaulting rule
// behind cmd/traclus -auto and the daemon's auto builds; pass the result
// to WithEstimation or Pipeline.Estimate when no better prior exists.
func DefaultEstimationRange(trs []Trajectory) (lo, hi float64) {
	bounds, _ := geom.BoundsOf(trs)
	hi = bounds.Margin() / 10
	if hi <= 1 {
		hi = 10
	}
	return hi / 60, hi
}

package traclus

// This file is the composable front door to the TRACLUS engine: a Pipeline
// built from functional options, whose three phases — Partitioner, Grouper,
// RepresentativeBuilder — are pluggable stage interfaces, whose Run takes a
// context.Context threaded through every fan-out loop, and whose Progress
// hook streams phase/fraction events. Options carry only what a Config
// cannot say — the stages, the progress hook and the estimation range —
// and every parameter comes from the one Config that WithConfig sets.
//
// Cancellation model: every phase checks ctx cooperatively at work-item
// granularity (one trajectory partition, one ε-neighborhood, one cluster
// sweep), so Run returns ctx.Err() within roughly one item's worth of work
// after the context ends — one scheduling quantum of the worker pool. A
// cancelled Run returns the bare ctx.Err() (match with errors.Is against
// context.Canceled / context.DeadlineExceeded); no partial Result is ever
// returned.
//
// Progress contract: the hook is invoked serially (never concurrently,
// though possibly from worker goroutines), phases arrive in pipeline order
// (partition → group → represent), fractions are non-decreasing within a
// phase, and every phase opens with Fraction 0 and closes with exactly one
// Fraction 1 event. Intermediate events are throttled, so the hook sees
// O(1/resolution) calls per phase, not one per work item. The hook must not
// block for long — it runs on the clustering's critical path — and must not
// call back into the Pipeline.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dendro"
	"repro/internal/geom"
	"repro/internal/geometry"
	"repro/internal/params"
	"repro/internal/segclust"
	"repro/internal/sweep"
)

// Item is one clusterable line segment: a trajectory partition together
// with its source trajectory id and weight. It is what the partition stage
// produces and the grouping stage consumes.
type Item = segclust.Item

// Grouping is the outcome of the grouping stage: per-item cluster labels
// (ClusterOf, with -1 = noise), the clusters in canonical order, the count
// of density-connected sets removed by the trajectory-cardinality filter,
// and the number of candidate pairs refined, each unordered pair scored
// once (DistCalls). An auto build (WithEstimation) reads its within-ε pairs
// from the estimation dendrogram and charges its candidates through a
// count-only pass, so its DistCalls is the count a scored grouping at the
// same ε reports, although no pair is scored. Custom Groupers should build
// one with GroupingFromLabels, which enforces the canonical shape the rest
// of the pipeline assumes (clusters numbered 0..k-1, members ascending,
// trajectory ids sorted).
type Grouping = segclust.Result

// SegmentCluster is one cluster of item indices within a Grouping.
type SegmentCluster = segclust.Cluster

// GroupingFromLabels canonicalises an arbitrary per-item labelling
// (labels[i] ≥ 0 = cluster id, negative = noise) into a Grouping, applying
// the Definition 10 trajectory-cardinality filter when minTrajs > 0.
// distCalls is recorded verbatim. It is the bridge for custom Groupers.
func GroupingFromLabels(items []Item, labels []int, minTrajs, distCalls int) *Grouping {
	return segclust.ResultFromLabels(items, labels, minTrajs, distCalls)
}

// Partitioner is the first pipeline stage: it turns raw trajectories into
// the pooled line segments the grouping stage clusters. Implementations
// must honour ctx (return ctx.Err() promptly once it ends) and produce
// output independent of cfg.Workers.
type Partitioner interface {
	Partition(ctx context.Context, trs []Trajectory, cfg Config) ([]Item, error)
}

// Grouper is the second pipeline stage: it clusters the pooled segments.
// Implementations must return a canonical Grouping (see GroupingFromLabels)
// with len(ClusterOf) == len(items), honour ctx, and produce output
// independent of cfg.Workers.
type Grouper interface {
	Group(ctx context.Context, items []Item, cfg Config) (*Grouping, error)
}

// RepresentativeBuilder is the third pipeline stage: it summarises one
// cluster's member segments (with their trajectory weights, index-aligned)
// as a representative trajectory. A nil, empty, or short return is allowed —
// clusters too compact for a stable representative keep a nil one.
// Implementations are called concurrently for distinct clusters and must
// not retain segs/weights.
type RepresentativeBuilder interface {
	Representative(ctx context.Context, segs []Segment, weights []float64, cfg Config) ([]Point, error)
}

// Phase identifies a pipeline phase in a ProgressEvent.
type Phase int

// The phases, in pipeline order: partition, then — only when the pipeline
// was built WithEstimation — estimate, then group and represent.
// PhaseEstimate's numeric value postdates the original three, so persisted
// phase numbers keep their meaning.
const (
	PhasePartition Phase = iota // MDL partitioning of trajectories
	PhaseGroup                  // density grouping of pooled segments
	PhaseRepresent              // per-cluster representative trajectories
	PhaseEstimate               // §4.4 ε/MinLns estimation (WithEstimation runs only)
)

func (p Phase) String() string {
	switch p {
	case PhasePartition:
		return "partition"
	case PhaseEstimate:
		return "estimate"
	case PhaseGroup:
		return "group"
	case PhaseRepresent:
		return "represent"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// ProgressEvent is one progress report from a running pipeline.
type ProgressEvent struct {
	// Phase is the phase the event belongs to.
	Phase Phase
	// Done and Total count the phase's work items (trajectories, segments,
	// clusters respectively). Total can be 0 for an empty phase.
	Done, Total int
	// Fraction is Done/Total in [0, 1]; an empty phase jumps 0 → 1.
	Fraction float64
}

// ProgressFunc receives ProgressEvents; see the progress contract in the
// package documentation above.
type ProgressFunc func(ProgressEvent)

// Pipeline is a reusable, configured TRACLUS pipeline: New(WithConfig(cfg))
// is the paper's pipeline under cfg, and stages and hooks are swapped with
// the other With* options. A Pipeline is immutable after New and safe for
// concurrent Run calls.
type Pipeline struct {
	cfg       Config
	est       *estimateRange
	partition Partitioner
	group     Grouper
	represent RepresentativeBuilder
	progress  ProgressFunc
}

// estimateRange is the ε search interval of WithEstimation.
type estimateRange struct{ lo, hi float64 }

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithConfig sets the TRACLUS parameters: every one of them, the index
// backend, the worker count and the geometry included.
func WithConfig(cfg Config) Option { return func(p *Pipeline) { p.cfg = cfg } }

// WithPartitioner replaces the partition stage (default PartitionMDL).
func WithPartitioner(s Partitioner) Option { return func(p *Pipeline) { p.partition = s } }

// WithGrouper replaces the grouping stage (default GroupDBSCAN).
func WithGrouper(g Grouper) Option { return func(p *Pipeline) { p.group = g } }

// WithRepresentativeBuilder replaces the representative stage (default
// SweepRepresentatives).
func WithRepresentativeBuilder(b RepresentativeBuilder) Option {
	return func(p *Pipeline) { p.represent = b }
}

// WithProgress installs a progress hook.
func WithProgress(fn ProgressFunc) Option { return func(p *Pipeline) { p.progress = fn } }

// WithEstimation makes Run choose Eps and MinLns itself before clustering,
// with the Section 4.4 heuristic searched over ε ∈ [lo, hi] (Config.Eps and
// Config.MinLns are ignored; MinLns is set to the middle of the suggested
// range, avg|Nε|+2). The estimation shares the run's single spatial index
// with the grouping phase — one build serves both — and the chosen
// parameters are reported on Result.Estimated. A range that fails
// ValidateEstimationRange is rejected before any work.
func WithEstimation(lo, hi float64) Option {
	return func(p *Pipeline) { p.est = &estimateRange{lo: lo, hi: hi} }
}

// New builds a Pipeline from functional options. With no options it is the
// paper's pipeline under the zero Config — set at least Eps and MinLns via
// WithConfig before Run.
func New(opts ...Option) *Pipeline {
	p := &Pipeline{}
	for _, opt := range opts {
		opt(p)
	}
	if p.partition == nil {
		p.partition = PartitionMDL()
	}
	if p.group == nil {
		p.group = GroupDBSCAN()
	}
	if p.represent == nil {
		p.represent = SweepRepresentatives()
	}
	return p
}

// Run executes the pipeline: partition → group → represent. It is the
// entrypoint of the package. A done ctx aborts the run within one work item
// and returns ctx.Err(); otherwise the result is bit-identical for every
// Workers value and every index backend.
//
// Trajectories carry Times exactly when the geometry is spatiotemporal
// (Config.Geometry = SpatiotemporalGeometry(wt)); any other mix is a
// *ConfigError. Under that geometry every partition inherits the
// time span of its points, the grouping runs under dist + wT·gap, and the
// Result carries per-cluster time windows; wT = 0 is bit-identical to a
// planar Run over the same points. The spatial index prefilter stays sound
// under the spatiotemporal distance: the temporal term only ever adds
// distance, so the planar candidate radius remains complete (see
// internal/geometry). Custom Partitioner and Grouper stages have no
// spatiotemporal form and are rejected under it; custom
// RepresentativeBuilders work unchanged.
func (p *Pipeline) Run(ctx context.Context, trs []Trajectory) (*Result, error) {
	b, err := p.prepare(ctx, trs, false, p.est)
	if err != nil {
		return nil, err
	}
	b.rep.begin(PhaseGroup, len(b.items))
	grouping, err := runGroup(ctx, p.group, b)
	if err != nil {
		return nil, stageError(ctx, PhaseGroup, err)
	}
	if grouping == nil || len(grouping.ClusterOf) != len(b.items) {
		labelled := 0
		if grouping != nil {
			labelled = len(grouping.ClusterOf)
		}
		return nil, fmt.Errorf("traclus: group stage labelled %d of %d items; use GroupingFromLabels to build a conformant Grouping",
			labelled, len(b.items))
	}
	b.rep.finish()
	return b.represent(ctx, p, grouping)
}

// build is what a run carries from its shared front half — validate,
// project, partition, index, estimate — into its grouping: Run groups the
// items in one pass, NewAppender into an ε-graph that absorbs appends.
type build struct {
	cfg       Config // resolved: geodesic frame filled in, estimated Eps/MinLns
	ccfg      core.Config
	items     []Item
	shared    *segclust.SharedIndex // nil when no phase queries it
	estimated *Estimate
	den       *dendro.Dendrogram
	rep       *progressReporter
}

// prepare is the front half of every build. It validates the configuration
// and the trajectories, projects a geodesic run into its working frame,
// partitions through the pipeline's partition stage, and indexes the items
// once: the one spatial index serves parameter estimation and the grouping
// phase's ε-neighborhoods alike. It is built only when a phase will query it
// (the default grouper, an appender, or estimation); a fully custom Grouper
// indexes — or doesn't — on its own terms. With a range (WithEstimation, or
// Estimate), prepare then chooses Eps and MinLns: the one ε search anneals
// over the dendrogram built once at the range maximum.
func (p *Pipeline) prepare(ctx context.Context, trs []Trajectory, appendable bool, est *estimateRange) (*build, error) {
	cfg := p.cfg
	if est != nil {
		// Eps and MinLns are what the estimation phase exists to find;
		// everything else must still be well-formed.
		if err := cfg.ValidateForEstimation(); err != nil {
			return nil, fmt.Errorf("traclus: %w", err)
		}
		if err := ValidateEstimationRange(est.lo, est.hi); err != nil {
			return nil, fmt.Errorf("traclus: %w", err)
		}
	} else if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("traclus: %w", err)
	}
	if err := p.defaultStages(appendable, cfg.Geometry); err != nil {
		return nil, err
	}
	if err := validateTrajectories(trs, cfg.Geometry); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Geometry.Kind == geometry.Geodesic {
		trs, cfg = projectGeodesic(trs, cfg)
	}
	b := &build{cfg: cfg, ccfg: cfg.core(), rep: newProgressReporter(p.progress)}
	b.rep.begin(PhasePartition, len(trs))
	items, err := runPartition(ctx, p.partition, trs, cfg, b.rep)
	if err != nil {
		return nil, stageError(ctx, PhasePartition, err)
	}
	b.rep.finish()
	b.items = items
	if _, groupsShared := p.group.(sharedGrouper); groupsShared || appendable || est != nil {
		b.shared = sharedIndex(items, b.ccfg)
	}
	if appendable && !b.shared.Searcher().Growable() {
		return nil, fmt.Errorf("traclus: appenders require a growable index backend (custom backend %q does not implement growth)", b.ccfg.ResolvedBackend().Name())
	}
	if est == nil {
		return b, nil
	}
	b.rep.begin(PhaseEstimate, params.DefaultIterations+1)
	// The multi-ε merge structure is built once at the range maximum: the
	// whole annealing walk cuts into it with zero further distance calls,
	// and it rides the Result so the serving layer can persist it and
	// answer sweep queries without rebuilding.
	b.den, err = dendro.FromShared(ctx, b.shared, est.hi, b.cfg.Workers)
	if err != nil {
		return nil, stageError(ctx, PhaseEstimate, err)
	}
	e, err := params.EstimateEpsDendroCtx(ctx, b.den, est.lo, est.hi, params.AnnealOptions{OnEval: b.rep.tick})
	if err != nil {
		return nil, stageError(ctx, PhaseEstimate, err)
	}
	b.rep.finish()
	b.cfg.Eps = e.Eps
	b.cfg.MinLns = float64(e.MinLnsLo+e.MinLnsHi) / 2
	b.ccfg = b.cfg.core()
	b.estimated = &Estimate{
		Eps:          e.Eps,
		Entropy:      e.Entropy,
		AvgNeighbors: e.AvgNeighbors,
		MinLnsLo:     e.MinLnsLo,
		MinLnsHi:     e.MinLnsHi,
	}
	return b, nil
}

// lists returns the build's dendrogram as the grouping's neighbor source
// when it covers ε — an auto build's, whose lists already hold every pair
// within ε — and nil otherwise. A nil *Dendrogram stays a nil interface.
func (b *build) lists() segclust.NeighborLists {
	if b.den == nil || b.den.MaxEps() < b.cfg.Eps {
		return nil
	}
	return b.den
}

// represent is the back half of every build: the representative phase over
// the grouping, and the Result.
func (b *build) represent(ctx context.Context, p *Pipeline, grouping *Grouping) (*Result, error) {
	b.rep.begin(PhaseRepresent, len(grouping.Clusters))
	out, err := core.AssembleCtx(ctx, b.items, grouping, b.ccfg, p.representFunc(b.cfg), b.rep.tick)
	if err != nil {
		return nil, stageError(ctx, PhaseRepresent, err)
	}
	b.rep.finish()
	res := newResult(out, b.ccfg)
	res.Estimated = b.estimated
	res.den.Store(b.den)
	return res, nil
}

// sharedIndex builds the one spatial index over items under the run's
// distance, backend and geometry — a spatiotemporal run's wT included.
func sharedIndex(items []Item, ccfg core.Config) *segclust.SharedIndex {
	return segclust.NewSharedIndex(items, ccfg.Distance, ccfg.Geometry.WT, ccfg.ResolvedBackend())
}

// validateTrajectories applies the one trajectory Validate to every input,
// and the one-type rule: trajectories carry Times exactly when the
// geometry is spatiotemporal.
func validateTrajectories(trs []Trajectory, g Geometry) error {
	if err := core.ValidateTrajectories(trs); err != nil {
		return fmt.Errorf("traclus: %w", err)
	}
	for _, tr := range trs {
		if err := timesFit(tr, g); err != nil {
			return fmt.Errorf("traclus: %w", err)
		}
	}
	return nil
}

// timesFit reports, as a *ConfigError, a trajectory whose time column does
// not fit the geometry.
func timesFit(tr Trajectory, g Geometry) error {
	switch {
	case g.Timed() && tr.Times == nil:
		return &ConfigError{Field: "Geometry", Value: g.Kind.String(),
			Reason: fmt.Sprintf("needs trajectories that carry Times; trajectory %d has none", tr.ID)}
	case !g.Timed() && tr.Times != nil:
		return &ConfigError{Field: "Geometry", Value: g.Kind.String(),
			Reason: fmt.Sprintf("takes trajectories without Times; trajectory %d carries them", tr.ID)}
	}
	return nil
}

// defaultStages rejects the pipeline configurations a build cannot honour:
// an appender needs the default MDL partition and DBSCAN grouping stages
// (the incremental update rule is the ε-graph's), and so does the
// spatiotemporal geometry (the partition stage gives items their spans,
// the grouping indexes them under wT). Custom RepresentativeBuilders are
// fine either way.
func (p *Pipeline) defaultStages(appendable bool, g Geometry) error {
	what, form := "appenders", "incremental"
	if !appendable {
		if !g.Timed() {
			return nil
		}
		what, form = "spatiotemporal runs", "spatiotemporal"
	}
	if _, ok := p.partition.(mdlPartitioner); !ok {
		return fmt.Errorf("traclus: %s require the default MDL partition stage (a custom Partitioner has no %s form)", what, form)
	}
	if _, ok := p.group.(dbscanGrouper); !ok {
		return fmt.Errorf("traclus: %s require the default DBSCAN grouping stage (a custom Grouper has no %s form)", what, form)
	}
	return nil
}

// projectGeodesic resolves the equirectangular frame from the data bounds
// (unless a frame was pre-resolved — a snapshot restore or an explicit
// Config) and rewrites every trajectory into the working meter frame. The
// resolved frame is recorded on cfg.Geometry so it rides the Result and its
// snapshot, and later queries project identically.
func projectGeodesic(trs []Trajectory, cfg Config) ([]Trajectory, Config) {
	var f geometry.Frame
	if cfg.Geometry.Frame != nil {
		f = *cfg.Geometry.Frame
	} else {
		bounds, _ := geom.BoundsOf(trs)
		f = geometry.FrameFor(bounds)
	}
	proj := make([]Trajectory, len(trs))
	for i, tr := range trs {
		tr.Points = f.ProjectTrajectory(tr.Points)
		proj[i] = tr
	}
	cfg.Geometry.Frame = &f
	return proj, cfg
}

// clusterWindows computes each cluster's time window — the smallest
// interval covering every member segment's span.
func clusterWindows(out *core.Output) []Interval {
	ws := make([]Interval, len(out.Clusters))
	for ci, c := range out.Clusters {
		w := out.Items[c.Members[0]].Span
		for _, m := range c.Members[1:] {
			w = w.Union(out.Items[m].Span)
		}
		ws[ci] = w
	}
	return ws
}

// representFunc adapts the configured RepresentativeBuilder for
// core.AssembleCtx; the default sweep builder maps to nil so the engine's
// own (identical) sweep path runs.
func (p *Pipeline) representFunc(cfg Config) core.RepresentativeFunc {
	if _, ok := p.represent.(sweepBuilder); ok {
		return nil
	}
	b := p.represent
	return func(ctx context.Context, segs []Segment, weights []float64) ([]Point, error) {
		return b.Representative(ctx, segs, weights, cfg)
	}
}

// runPartition invokes the partition stage, routing per-trajectory ticks
// from in-package stages into the reporter.
func runPartition(ctx context.Context, s Partitioner, trs []Trajectory, cfg Config, rep *progressReporter) ([]Item, error) {
	if ts, ok := s.(tickedPartitioner); ok {
		return ts.partitionTicked(ctx, trs, cfg, rep.tick)
	}
	return s.Partition(ctx, trs, cfg)
}

// runGroup invokes the grouping stage. The in-package default grouper
// consumes the build's prebuilt shared index and, in an auto build, its
// dendrogram's lists (and streams ticks); custom stages get the plain
// Grouper call.
func runGroup(ctx context.Context, g Grouper, b *build) (*Grouping, error) {
	if sg, ok := g.(sharedGrouper); ok && b.shared != nil {
		return sg.groupSharedTicked(ctx, b.shared, b.lists(), b.cfg, b.rep.tick)
	}
	return g.Group(ctx, b.items, b.cfg)
}

// stageError surfaces a done context as the bare ctx.Err() and wraps real
// stage failures with the phase they came from.
func stageError(ctx context.Context, phase Phase, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
		return ctxErr
	}
	return fmt.Errorf("traclus: %s stage: %w", phase, err)
}

// Estimate applies the Section 4.4 parameter heuristic under this
// pipeline's configuration (weights, backend, workers, geometry and
// partition stage; Eps and MinLns are ignored) and returns exactly the
// Result.Estimated a WithEstimation(lo, hi) run records: it is that run's
// front half — the same validation (a bad range or Config field is a
// *ConfigError), the same partition and estimate progress events, the same
// single index and dendrogram — stopped before the grouping. A done ctx
// stops the search within one ε evaluation and returns ctx.Err().
func (p *Pipeline) Estimate(ctx context.Context, trs []Trajectory, lo, hi float64) (Estimate, error) {
	b, err := p.prepare(ctx, trs, false, &estimateRange{lo: lo, hi: hi})
	if err != nil {
		return Estimate{}, err
	}
	return *b.estimated, nil
}

// ---- Default stages ----

// PartitionMDL returns the default partition stage: the paper's §3.3 MDL
// approximate partitioning, fanned across cfg.Workers with per-worker
// scratch.
func PartitionMDL() Partitioner { return mdlPartitioner{} }

type mdlPartitioner struct{}

// tickedPartitioner lets in-package stages stream per-item progress into
// the pipeline's reporter; custom stages simply get begin/end events.
type tickedPartitioner interface {
	partitionTicked(ctx context.Context, trs []Trajectory, cfg Config, tick func()) ([]Item, error)
}

func (p mdlPartitioner) Partition(ctx context.Context, trs []Trajectory, cfg Config) ([]Item, error) {
	return p.partitionTicked(ctx, trs, cfg, nil)
}

func (mdlPartitioner) partitionTicked(ctx context.Context, trs []Trajectory, cfg Config, tick func()) ([]Item, error) {
	return core.PartitionAllCtx(ctx, trs, cfg.core(), tick)
}

// GroupDBSCAN returns the default grouping stage: the paper's Figure-12
// density-based clustering (DBSCAN semantics with the Definition 10
// trajectory-cardinality filter), computed as an ε-neighborhood precompute
// across cfg.Workers goroutines, union-find over the core-segment ε-graph
// and one numbering and border pass — Figure 12's clustering, bit for bit,
// at every worker count.
func GroupDBSCAN() Grouper { return dbscanGrouper{} }

type dbscanGrouper struct{}

// sharedGrouper marks groupers that cluster through the pipeline's prebuilt
// shared index instead of indexing the items themselves, reading the
// neighborhoods from lists when they are non-nil.
type sharedGrouper interface {
	groupSharedTicked(ctx context.Context, shared *segclust.SharedIndex, lists segclust.NeighborLists, cfg Config, tick func()) (*Grouping, error)
}

func (dbscanGrouper) Group(ctx context.Context, items []Item, cfg Config) (*Grouping, error) {
	return segclust.RunCtx(ctx, items, cfg.core().Segclust(), nil)
}

func (dbscanGrouper) groupSharedTicked(ctx context.Context, shared *segclust.SharedIndex, lists segclust.NeighborLists, cfg Config, tick func()) (*Grouping, error) {
	inc, err := segclust.NewIncrementalCtx(ctx, shared, cfg.core().Segclust(), tick, lists)
	if err != nil {
		return nil, err
	}
	return inc.Result(), nil
}

// SweepRepresentatives returns the default representative stage: the §4.3
// sweep line along each cluster's average direction, emitting points where
// at least MinLns (weighted) segments overlap, γ apart (Config.Gamma, 0 =
// Eps/4).
func SweepRepresentatives() RepresentativeBuilder { return sweepBuilder{} }

type sweepBuilder struct{}

func (sweepBuilder) Representative(_ context.Context, segs []Segment, weights []float64, cfg Config) ([]Point, error) {
	return sweep.Representative(segs, weights, sweep.Config{
		MinLns: cfg.MinLns,
		Gamma:  cfg.core().EffectiveGamma(),
	}), nil
}

// ---- Progress reporting ----

// progressResolution bounds intermediate events per phase: a tick emits
// only when the fraction advanced by at least 1/progressResolution since
// the last emitted event (completion always emits).
const progressResolution = 64

// progressReporter serializes and throttles progress callbacks. All state
// transitions happen under mu, which also makes the emission order total:
// phases in order, fractions non-decreasing, exactly one Fraction-1 event
// per phase.
type progressReporter struct {
	fn ProgressFunc

	mu       sync.Mutex
	phase    Phase
	done     int
	total    int
	lastFrac float64
	closed   bool // the Fraction-1 event for this phase was emitted
}

func newProgressReporter(fn ProgressFunc) *progressReporter {
	return &progressReporter{fn: fn}
}

func (r *progressReporter) begin(phase Phase, total int) {
	if r == nil || r.fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.phase, r.done, r.total, r.lastFrac, r.closed = phase, 0, total, 0, false
	r.fn(ProgressEvent{Phase: phase, Done: 0, Total: total, Fraction: 0})
}

// tick records one completed work item, emitting an event when the
// fraction advanced enough (or the phase completed).
func (r *progressReporter) tick() {
	if r == nil || r.fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done++
	if r.total <= 0 || r.done > r.total || r.closed {
		return // defensive: a stage over-ticking must not break monotonicity
	}
	frac := float64(r.done) / float64(r.total)
	if frac < 1 && frac-r.lastFrac < 1.0/progressResolution {
		return
	}
	r.lastFrac = frac
	if frac >= 1 {
		r.closed = true
	}
	r.fn(ProgressEvent{Phase: r.phase, Done: r.done, Total: r.total, Fraction: frac})
}

// finish closes the phase, emitting the Fraction-1 event if ticks did not
// already (stages without tick support, empty phases).
func (r *progressReporter) finish() {
	if r == nil || r.fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	done := r.done
	if r.total > 0 && done > r.total {
		done = r.total
	}
	r.fn(ProgressEvent{Phase: r.phase, Done: done, Total: r.total, Fraction: 1})
}

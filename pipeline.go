package traclus

// This file is the front door to the TRACLUS engine: a Pipeline built from
// functional options, whose Run takes a context.Context threaded through
// every fan-out loop, and whose Progress hook streams phase/fraction
// events. Every parameter comes from the one Config that WithConfig sets;
// the other two options carry what a Config cannot say — the progress hook
// and the estimation range. Run and NewAppender are one build: partition
// (Figure 8), group (Figure 12) into an ε-graph, represent (Figure 15); Run
// keeps the Result, NewAppender the ε-graph too.
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
)

// Item is one clusterable line segment: a trajectory partition together
// with its source trajectory id and weight. It is what the partition phase
// produces and the grouping phase consumes.
type Item = segclust.Item

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
// is the paper's pipeline under cfg, WithProgress adds a progress hook and
// WithEstimation has it choose Eps and MinLns itself. A Pipeline is
// immutable after New and safe for concurrent Run calls.
type Pipeline struct {
	cfg      Config
	est      *estimateRange
	progress ProgressFunc
}

// estimateRange is the ε search interval of WithEstimation.
type estimateRange struct{ lo, hi float64 }

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithConfig sets the TRACLUS parameters: every one of them, the index
// backend, the worker count and the geometry included.
func WithConfig(cfg Config) Option { return func(p *Pipeline) { p.cfg = cfg } }

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
// internal/geometry).
func (p *Pipeline) Run(ctx context.Context, trs []Trajectory) (*Result, error) {
	res, _, err := p.cluster(ctx, trs, false)
	return res, err
}

// cluster is the one build body behind Run and NewAppender: prepare, then
// the grouping into an ε-graph that can absorb appends, then the
// representatives. It returns the Result and, when appendable, the
// Incremental that grouped it.
func (p *Pipeline) cluster(ctx context.Context, trs []Trajectory, appendable bool) (*Result, *segclust.Incremental, error) {
	b, err := p.prepare(ctx, trs, p.est)
	if err != nil {
		return nil, nil, err
	}
	items := b.shared.Items()
	b.rep.begin(PhaseGroup, len(items))
	inc, err := segclust.NewIncrementalCtx(ctx, b.shared, b.ccfg.Segclust(), b.rep.tick, b.lists())
	if err != nil {
		return nil, nil, stageError(ctx, PhaseGroup, err)
	}
	b.rep.finish()
	grouping := inc.Result()
	if !appendable {
		// Run keeps only the Result, so the ε-graph goes before the
		// representatives instead of living to the end of the build:
		// holding it made build-fixed's builds about 10% slower
		// (update_p50_ms, 2-vCPU Xeon VM).
		inc = nil
	}
	b.rep.begin(PhaseRepresent, len(grouping.Clusters))
	out, err := core.AssembleCtx(ctx, items, grouping, b.ccfg, nil, b.rep.tick)
	if err != nil {
		return nil, nil, stageError(ctx, PhaseRepresent, err)
	}
	b.rep.finish()
	res := newResult(out, b.ccfg)
	res.Estimated = b.estimated
	res.den.Store(b.den)
	return res, inc, nil
}

// build is what a run carries from its shared front half — validate,
// project, partition, index, estimate — into its grouping.
type build struct {
	ccfg      core.Config           // resolved: geodesic frame filled in, estimated Eps/MinLns
	shared    *segclust.SharedIndex // over the partitioned items
	estimated *Estimate
	den       *dendro.Dendrogram
	rep       *progressReporter
}

// prepare is the front half of every build. It validates the configuration
// and the trajectories, projects a geodesic run into its working frame,
// partitions (Figure 8), and indexes the items once: the one spatial index
// serves parameter estimation and the grouping phase's ε-neighborhoods
// alike. With a range (WithEstimation, or Estimate), prepare then chooses
// Eps and MinLns: the one ε search anneals over the dendrogram built once
// at the range maximum.
func (p *Pipeline) prepare(ctx context.Context, trs []Trajectory, est *estimateRange) (*build, error) {
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
	if err := validateTrajectories(trs, cfg.Geometry); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Geometry.Kind == geometry.Geodesic {
		trs, cfg.Geometry = projectGeodesic(trs, cfg.Geometry)
	}
	b := &build{ccfg: cfg.core(), rep: newProgressReporter(p.progress)}
	b.rep.begin(PhasePartition, len(trs))
	items, err := core.PartitionAllCtx(ctx, trs, b.ccfg, b.rep.tick)
	if err != nil {
		return nil, stageError(ctx, PhasePartition, err)
	}
	b.rep.finish()
	b.shared = sharedIndex(items, b.ccfg)
	if est == nil {
		return b, nil
	}
	b.rep.begin(PhaseEstimate, params.DefaultIterations+1)
	// The multi-ε merge structure is built once at the range maximum: the
	// whole annealing walk cuts into it with zero further distance calls,
	// and it rides the Result so the serving layer can persist it and
	// answer sweep queries without rebuilding.
	b.den, err = dendro.FromShared(ctx, b.shared, est.hi, b.ccfg.Workers)
	if err != nil {
		return nil, stageError(ctx, PhaseEstimate, err)
	}
	e, err := params.EstimateEpsDendroCtx(ctx, b.den, est.lo, est.hi, params.AnnealOptions{OnEval: b.rep.tick})
	if err != nil {
		return nil, stageError(ctx, PhaseEstimate, err)
	}
	b.rep.finish()
	b.ccfg.Eps = e.Eps
	b.ccfg.MinLns = float64(e.MinLnsLo+e.MinLnsHi) / 2
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
	if b.den == nil || b.den.MaxEps() < b.ccfg.Eps {
		return nil
	}
	return b.den
}

// sharedIndex builds the one spatial index over items under the run's
// distance, backend and geometry — a spatiotemporal run's wT included.
func sharedIndex(items []Item, ccfg core.Config) *segclust.SharedIndex {
	return segclust.NewSharedIndex(items, ccfg.Distance, ccfg.Geometry.WT, ccfg.Backend)
}

// validateTrajectories applies the one trajectory Validate to every input,
// and the geometry's rules (fitsGeometry).
func validateTrajectories(trs []Trajectory, g Geometry) error {
	if err := core.ValidateTrajectories(trs); err != nil {
		return fmt.Errorf("traclus: %w", err)
	}
	for _, tr := range trs {
		if err := fitsGeometry(tr, g); err != nil {
			return fmt.Errorf("traclus: %w", err)
		}
	}
	return nil
}

// fitsGeometry reports, as a *ConfigError, a trajectory that does not fit
// the geometry: trajectories carry Times exactly when the geometry is
// spatiotemporal, and a geodesic trajectory's points keep to the degree
// bounds of Geometry.CheckPoints.
func fitsGeometry(tr Trajectory, g Geometry) error {
	switch {
	case g.Timed() && tr.Times == nil:
		return &ConfigError{Field: "Geometry", Value: g.Kind.String(),
			Reason: fmt.Sprintf("needs trajectories that carry Times; trajectory %d has none", tr.ID)}
	case !g.Timed() && tr.Times != nil:
		return &ConfigError{Field: "Geometry", Value: g.Kind.String(),
			Reason: fmt.Sprintf("takes trajectories without Times; trajectory %d carries them", tr.ID)}
	}
	if reason := g.CheckPoints(tr); reason != "" {
		return &ConfigError{Field: "Geometry", Value: g.Kind.String(), Reason: reason}
	}
	return nil
}

// projectGeodesic resolves the equirectangular frame from the data bounds
// (unless a frame was pre-resolved — a snapshot restore or an explicit
// Config) and rewrites every trajectory into the working meter frame. The
// resolved frame is recorded on the returned geometry so it rides the
// Result and its snapshot, and later queries project identically.
func projectGeodesic(trs []Trajectory, g Geometry) ([]Trajectory, Geometry) {
	var f geometry.Frame
	if g.Frame != nil {
		f = *g.Frame
	} else {
		bounds, _ := geom.BoundsOf(trs)
		f = geometry.FrameFor(bounds)
	}
	proj := make([]Trajectory, len(trs))
	for i, tr := range trs {
		tr.Points = f.ProjectTrajectory(tr.Points)
		proj[i] = tr
	}
	g.Frame = &f
	return proj, g
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

// stageError surfaces a done context as the bare ctx.Err() and wraps real
// failures with the phase they came from.
func stageError(ctx context.Context, phase Phase, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
		return ctxErr
	}
	return fmt.Errorf("traclus: %s stage: %w", phase, err)
}

// Estimate applies the Section 4.4 parameter heuristic under this
// pipeline's configuration (weights, partitioning, backend, workers and
// geometry; Eps and MinLns are ignored) and returns exactly the
// Result.Estimated a WithEstimation(lo, hi) run records: it is that run's
// front half — the same validation (a bad range or Config field is a
// *ConfigError), the same partition and estimate progress events, the same
// single index and dendrogram — stopped before the grouping. A done ctx
// stops the search within one ε evaluation and returns ctx.Err().
func (p *Pipeline) Estimate(ctx context.Context, trs []Trajectory, lo, hi float64) (Estimate, error) {
	b, err := p.prepare(ctx, trs, &estimateRange{lo: lo, hi: hi})
	if err != nil {
		return Estimate{}, err
	}
	return *b.estimated, nil
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
		return // defensive: a phase over-ticking must not break monotonicity
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
// already (a phase whose ticks fall short of its total, empty phases).
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

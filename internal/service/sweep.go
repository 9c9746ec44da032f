package service

// Multi-ε queries over a served model: the dendrogram (internal/dendro)
// lets the daemon answer "what would this clustering look like at ε?" for
// any ε without re-running the grouping. SweepQuality walks a grid of ε
// values and reports the Section 5.1 quality terms at each; ClustersAt
// materialises the full clustering — members, trajectories, representatives
// — at one ε. Both reconstruct exactly what a fresh build at that ε would
// produce (the dendro equivalence suite pins this).
//
// The quality terms do score pair distances, through quality.State, which
// advances from an earlier clustering by scoring only the pairs whose
// co-membership changed. A lineage keeps the state of every step of its
// last sweep, with that sweep's grid and epoch; the states are never
// persisted. A sweep on the same grid at that epoch or a later one
// advances step k from the carried step-k state or from step k−1,
// whichever scores fewer pairs: after a one-trajectory append, the carried
// state, and only the pairs the append touched. Any other sweep — the
// lineage's first, a new grid, an older epoch, a snapshot-restored model —
// chains its steps, each from the one before and the first from scratch.
// Every path gives the same bits.

import (
	"context"
	"errors"
	"fmt"
	"math"

	traclus "repro"
	"repro/internal/core"
	"repro/internal/dendro"
	"repro/internal/lsdist"
	"repro/internal/quality"
	"repro/internal/segclust"
)

// ErrNoDendrogram reports a sweep or cut that a snapshot-restored model
// cannot answer. A restored model keeps no training geometry, only the
// merge structure its snapshot carried, and many snapshots carry none:
// format v1 files, a fixed-ε model persisted before its first sweep, and
// every appended epoch. A restored spatiotemporal model cannot widen the
// structure it has either — snapshots keep no per-item time intervals — so
// a query beyond its persisted range returns an error wrapping this one.
// The daemon answers both with 422 no_dendrogram.
var ErrNoDendrogram = errors.New("service: model carries no dendrogram for this ε range (restored from a snapshot without one); rebuild the model to enable sweep queries")

// maxSweepSteps bounds the ε-grid resolution of one sweep request: each
// step costs a dendrogram cut and a quality pass over the pairs whose
// co-membership changed — up to O(|C|²) per cluster when a step reshapes
// one — so the cap keeps a single request from monopolising the daemon.
const maxSweepSteps = 4096

// maxCarriedSteps bounds the sweeps a lineage carries. A carried sweep
// keeps one quality state per step, 4 bytes per item plus about 300 bytes
// per group each, so a finer grid chains its steps and keeps two states at
// a time, as every sweep did before states were carried.
const maxCarriedSteps = 64

// grid is the ε grid of one sweep: steps points from lo to hi.
type grid struct {
	lo, hi float64
	steps  int
}

// eps returns the grid's k-th point, lo + (hi−lo)·k/(steps−1). The last
// point is hi itself and no point exceeds it: the formula can round one ulp
// above hi, past the dendrogram DendrogramAt(hi) built.
func (g grid) eps(k int) float64 {
	if k == g.steps-1 {
		return g.hi
	}
	return math.Min(g.lo+(g.hi-g.lo)*float64(k)/float64(g.steps-1), g.hi)
}

// carried is a lineage's last sweep: its grid, the epoch it swept, and the
// quality state of every step. It refers to no Model, Result or dendrogram,
// so it keeps no superseded epoch alive, and it is never persisted.
type carried struct {
	grid   grid
	epoch  int64
	states []*quality.State
}

// carry records c as the lineage's last sweep unless the lineage holds a
// sweep of a later epoch. It never waits on the lineage lock.
func (lin *lineage) carry(c *carried) {
	for {
		old := lin.sweep.Load()
		if old != nil && old.epoch > c.epoch {
			return
		}
		if lin.sweep.CompareAndSwap(old, c) {
			return
		}
	}
}

// carriedFor returns, per step of grid g, the state a sweep of g on m may
// advance from: the lineage's last sweep's when it walked g at m's epoch or
// an earlier one, whose items are a prefix of m's. Otherwise every step's
// is nil, and the sweep chains its steps.
func (m *Model) carriedFor(g grid) []*quality.State {
	if m.lin != nil {
		if c := m.lin.sweep.Load(); c != nil && c.grid == g && c.epoch <= m.Epoch() {
			return c.states
		}
	}
	return make([]*quality.State, g.steps)
}

// SweepPoint is the quality curve sample at one ε.
type SweepPoint struct {
	Eps             float64 `json:"eps"`
	Clusters        int     `json:"clusters"`
	NoiseSegments   int     `json:"noise_segments"`
	NoiseFraction   float64 `json:"noise_fraction"`
	RemovedClusters int     `json:"removed_clusters"`
	TotalSSE        float64 `json:"total_sse"`
	NoisePenalty    float64 `json:"noise_penalty"`
	QMeasure        float64 `json:"q_measure"`
}

// CutCluster is one cluster of a ClustersAt reconstruction.
type CutCluster struct {
	Cluster        int             `json:"cluster"`
	Segments       int             `json:"segments"`
	Trajectories   []int           `json:"trajectories"`
	Representative []traclus.Point `json:"representative,omitempty"`
}

// CutResult is the clustering reconstructed at one ε.
type CutResult struct {
	Eps             float64      `json:"eps"`
	MinLns          float64      `json:"min_lns"`
	TotalSegments   int          `json:"total_segments"`
	NoiseSegments   int          `json:"noise_segments"`
	NoiseFraction   float64      `json:"noise_fraction"`
	RemovedClusters int          `json:"removed_clusters"`
	Clusters        []CutCluster `json:"clusters"`
}

// Dendrogram returns the model's current merge structure, or nil if none
// has been built yet: the Result's for a built or appended model, the
// restored one for a snapshot-loaded model.
func (m *Model) Dendrogram() *dendro.Dendrogram {
	if m.res != nil {
		return m.res.Dendrogram()
	}
	m.dmu.Lock()
	defer m.dmu.Unlock()
	return m.den
}

// distOptions resolves the distance the model was built with: the zero
// Weights select the paper's defaults, as in the pipeline. The snapshot
// layer serializes this resolution.
func (m *Model) distOptions() lsdist.Options {
	w := m.cfg.Weights
	if (w == traclus.Weights{}) {
		w = lsdist.DefaultWeights()
	}
	return lsdist.Options{Weights: w, Undirected: m.cfg.Undirected}
}

// DendrogramAt returns a dendrogram covering ε ≤ maxEps. A built or
// appended model delegates to its Result (traclus.Result.DendrogramAt),
// which builds over the epoch's own items under the model's own distance —
// the spatiotemporal term included — and keeps the widest structure built.
// A snapshot-restored model has only the dendrogram its snapshot carried:
// without one it returns ErrNoDendrogram; a planar or geodesic model
// rebuilds a wider one from its items under dmu; a spatiotemporal model,
// whose snapshot lacks the per-item intervals, cannot, and a query beyond
// its range returns an error wrapping ErrNoDendrogram.
func (m *Model) DendrogramAt(ctx context.Context, maxEps float64) (*dendro.Dendrogram, error) {
	if m.res != nil {
		return m.res.DendrogramAt(ctx, maxEps)
	}
	if err := segclust.CheckPositive("Eps", maxEps); err != nil {
		return nil, err
	}
	m.dmu.Lock()
	defer m.dmu.Unlock()
	switch {
	case m.den == nil:
		return nil, ErrNoDendrogram
	case m.den.MaxEps() >= maxEps:
		return m.den, nil
	case m.cfg.Geometry.Timed():
		return nil, fmt.Errorf("%w: ε %g exceeds the restored spatiotemporal dendrogram's range %g, and the snapshot has no per-item intervals to rebuild it from",
			ErrNoDendrogram, maxEps, m.den.MaxEps())
	}
	shared := segclust.NewSharedIndexFor(m.den.Items(), m.distOptions(), m.cfg.Index)
	d, err := dendro.FromShared(ctx, shared, maxEps, m.cfg.Workers)
	if err != nil {
		return nil, err
	}
	m.den = d
	return d, nil
}

// SweepQuality samples the quality curve at steps evenly-spaced ε values
// across [lo, hi] (inclusive on both ends; the last point is hi exactly):
// cluster count, noise fraction, and the Formula 11 terms at every ε, all
// served from one merge structure. Each step's quality advances from the
// previous step or, when the lineage's last sweep walked the same grid at
// this epoch or an earlier one, from that sweep's state of the same step,
// whichever scores fewer pairs; either way it equals, bit for bit, a
// from-scratch quality.Measure of that step's clustering. A sweep of at
// most maxCarriedSteps steps then becomes the lineage's last sweep, unless
// the lineage holds one of a later epoch. Invalid ranges return a
// *traclus.ConfigError, which the daemon maps to the /v1 invalid_config
// envelope.
func (m *Model) SweepQuality(ctx context.Context, lo, hi float64, steps int) ([]SweepPoint, error) {
	pts, _, err := m.sweep(ctx, lo, hi, steps)
	return pts, err
}

// sweep is SweepQuality, also returning how many pair distances its
// quality passes scored.
func (m *Model) sweep(ctx context.Context, lo, hi float64, steps int) ([]SweepPoint, int, error) {
	if err := segclust.CheckPositive("Sweep.Lo", lo); err != nil {
		return nil, 0, err
	}
	if err := segclust.CheckPositive("Sweep.Hi", hi); err != nil {
		return nil, 0, err
	}
	if lo >= hi {
		return nil, 0, &traclus.ConfigError{Field: "Sweep", Value: [2]float64{lo, hi}, Reason: "lo must be less than hi"}
	}
	if steps < 2 || steps > maxSweepSteps {
		return nil, 0, &traclus.ConfigError{Field: "Sweep.Steps", Value: steps, Reason: "must be in [2, 4096]"}
	}
	d, err := m.DendrogramAt(ctx, hi)
	if err != nil {
		return nil, 0, err
	}
	g := grid{lo: lo, hi: hi, steps: steps}
	base := m.carriedFor(g)
	var keep []*quality.State
	if m.lin != nil && steps <= maxCarriedSteps {
		keep = make([]*quality.State, steps)
	}
	items := d.Items()
	qs := quality.NewSweep(items, m.distOptions(), m.cfg.Workers)
	pts := make([]SweepPoint, steps)
	pairs := 0
	var q *quality.State
	for k := range pts {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		eps := g.eps(k)
		res, err := d.CutAt(eps, m.cfg.MinLns, m.cfg.MinTrajs)
		if err != nil {
			return nil, 0, err
		}
		if q, err = qs.Next(ctx, res, base[k], q); err != nil {
			return nil, 0, err
		}
		pairs += q.Pairs()
		if keep != nil {
			keep[k] = q
		}
		b := q.Breakdown()
		noise := res.NoiseCount()
		pts[k] = SweepPoint{
			Eps:             eps,
			Clusters:        len(res.Clusters),
			NoiseSegments:   noise,
			NoiseFraction:   noiseFraction(noise, len(items)),
			RemovedClusters: res.Removed,
			TotalSSE:        b.TotalSSE,
			NoisePenalty:    b.NoisePenalty,
			QMeasure:        b.QMeasure(),
		}
	}
	if keep != nil {
		m.lin.carry(&carried{grid: g, epoch: m.Epoch(), states: keep})
	}
	return pts, pairs, nil
}

// ClustersAt reconstructs the full clustering at ε: the dendrogram cut
// supplies membership, then the Section 4.3 sweep builds each cluster's
// representative under the model's MinLns and γ — with γ defaulting to ε/4
// at the requested ε, exactly as a fresh run at that ε would resolve it.
func (m *Model) ClustersAt(ctx context.Context, eps float64) (*CutResult, error) {
	d, err := m.DendrogramAt(ctx, eps)
	if err != nil {
		return nil, err
	}
	res, err := d.CutAt(eps, m.cfg.MinLns, m.cfg.MinTrajs)
	if err != nil {
		return nil, err
	}
	ccfg := core.Config{
		Eps:      eps,
		MinLns:   m.cfg.MinLns,
		MinTrajs: m.cfg.MinTrajs,
		Distance: m.distOptions(),
		Gamma:    m.cfg.Gamma,
		Workers:  m.cfg.Workers,
	}
	out, err := core.AssembleCtx(ctx, d.Items(), res, ccfg, nil, nil)
	if err != nil {
		return nil, err
	}
	noise := res.NoiseCount()
	cr := &CutResult{
		Eps:             eps,
		MinLns:          m.cfg.MinLns,
		TotalSegments:   len(out.Items),
		NoiseSegments:   noise,
		NoiseFraction:   noiseFraction(noise, len(out.Items)),
		RemovedClusters: res.Removed,
		Clusters:        make([]CutCluster, len(out.Clusters)),
	}
	for ci, c := range out.Clusters {
		cr.Clusters[ci] = CutCluster{
			Cluster:        ci,
			Segments:       len(c.Members),
			Trajectories:   c.Trajectories,
			Representative: c.Representative,
		}
	}
	return cr, nil
}

// noiseFraction guards the empty-model case: 0/0 would be NaN, which
// encoding/json cannot represent.
func noiseFraction(noise, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(noise) / float64(total)
}

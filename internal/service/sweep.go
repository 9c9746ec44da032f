package service

// Multi-ε queries over a served model: the dendrogram (internal/dendro)
// lets the daemon answer "what would this clustering look like at ε?" for
// any ε without re-running the grouping. SweepQuality walks a grid of ε
// values and reports the Section 5.1 quality terms at each; ClustersAt
// materialises the full clustering — members, trajectories, representatives
// — at one ε. Both reconstruct exactly what a fresh build at that ε would
// produce (the dendro equivalence suite pins this). The quality terms do
// score pair distances: one quality.State threads through the sweep, so
// each step scores only the pairs whose co-membership changed since the
// step before.

import (
	"context"
	"errors"
	"fmt"

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
// across [lo, hi] (inclusive on both ends): cluster count, noise fraction,
// and the Formula 11 terms at every ε, all served from one merge structure.
// Each step's quality advances from the previous step's, and equals, bit
// for bit, a from-scratch quality.Measure of that step's clustering.
// Invalid ranges return a *traclus.ConfigError, which the daemon maps to
// the /v1 invalid_config envelope.
func (m *Model) SweepQuality(ctx context.Context, lo, hi float64, steps int) ([]SweepPoint, error) {
	if err := segclust.CheckPositive("Sweep.Lo", lo); err != nil {
		return nil, err
	}
	if err := segclust.CheckPositive("Sweep.Hi", hi); err != nil {
		return nil, err
	}
	if lo >= hi {
		return nil, &traclus.ConfigError{Field: "Sweep", Value: [2]float64{lo, hi}, Reason: "lo must be less than hi"}
	}
	if steps < 2 || steps > maxSweepSteps {
		return nil, &traclus.ConfigError{Field: "Sweep.Steps", Value: steps, Reason: "must be in [2, 4096]"}
	}
	d, err := m.DendrogramAt(ctx, hi)
	if err != nil {
		return nil, err
	}
	items := d.Items()
	opt := m.distOptions()
	pts := make([]SweepPoint, steps)
	var q *quality.State
	for k := range pts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eps := lo + (hi-lo)*float64(k)/float64(steps-1)
		res, err := d.CutAt(eps, m.cfg.MinLns, m.cfg.MinTrajs)
		if err != nil {
			return nil, err
		}
		if q, err = q.Next(ctx, items, res, opt, m.cfg.Workers); err != nil {
			return nil, err
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
	return pts, nil
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

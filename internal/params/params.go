// Package params implements the TRACLUS parameter-selection heuristic
// (Section 4.4): pick ε by minimising the Shannon entropy of the
// ε-neighborhood size distribution (Formula 10) with simulated annealing,
// then suggest MinLns as avg|Nε| + 1..3 at the chosen ε.
//
// The intuition from the paper: in a worst-case clustering |Nε(L)| is
// uniform (entropy maximal — ε far too small or far too large), while a
// good clustering makes |Nε(L)| skewed (entropy smaller).
//
// ε evaluations no longer re-run a neighborhood pass per candidate: when
// the search range is bounded, the package precomputes the multi-ε merge
// structure (internal/dendro) from one shared-index candidate pass at the
// range maximum, and every subsequent ε evaluation — the whole annealing
// walk, the whole grid sweep — is binary searches over sorted per-item
// neighbor lists, issuing zero further distance calls. The per-item
// weights a dendrogram reports are exactly the weights a fresh pass
// reports for order-independent sums (unit/integer weights, the universal
// case in this repo), so the seeded annealing walk and its Estimate are
// unchanged. An unbounded (hi = +Inf) range falls back to the per-ε
// shared-index pass, which remains bit-identical to the historical path.
// Callers that already indexed the items (the public Pipeline) share that
// single index via the *Shared entry points instead of building a second
// one; callers that already built a dendrogram hand it to the *Dendro
// entry points.
package params

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"repro/internal/dendro"
	"repro/internal/lsdist"
	"repro/internal/segclust"
)

// Entropy computes H(X) of Formula 10 from the (weighted) ε-neighborhood
// cardinalities: p(x_i) = |Nε(x_i)| / Σ_j |Nε(x_j)|, H = -Σ p log2 p.
// Zero-cardinality entries contribute nothing; an empty or all-zero input
// has zero entropy.
func Entropy(neighborhood []float64) float64 {
	var total float64
	for _, w := range neighborhood {
		total += w
	}
	if total <= 0 {
		return 0
	}
	var h float64
	for _, w := range neighborhood {
		if w <= 0 {
			continue
		}
		p := w / total
		h -= p * math.Log2(p)
	}
	return h
}

// Average returns avg|Nε(L)| over the input.
func Average(neighborhood []float64) float64 {
	if len(neighborhood) == 0 {
		return 0
	}
	var sum float64
	for _, w := range neighborhood {
		sum += w
	}
	return sum / float64(len(neighborhood))
}

// SuggestMinLns returns the paper's recommended MinLns range at the optimal
// ε: avg|Nε(L)| + 1 through avg|Nε(L)| + 3 (Section 4.4), rounded to
// integers and clamped to at least 2.
func SuggestMinLns(avgNeighbors float64) (lo, hi int) {
	lo = int(math.Round(avgNeighbors)) + 1
	hi = int(math.Round(avgNeighbors)) + 3
	if lo < 2 {
		lo = 2
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// EntropyPoint is one sample of the entropy curve (Figures 16 and 19).
type EntropyPoint struct {
	Eps          float64
	Entropy      float64
	AvgNeighbors float64
}

// Sweep evaluates the entropy at each ε in epsValues, as plotted in
// Figures 16 and 19. The values need not be sorted. One shared index
// serves every ε (each query derives its own candidate radius).
func Sweep(items []segclust.Item, epsValues []float64, opt lsdist.Options, index segclust.IndexKind, workers int) []EntropyPoint {
	return SweepShared(segclust.NewSharedIndexFor(items, opt, segclust.BackendFor(index)), epsValues, workers)
}

// SweepShared is Sweep over a prebuilt shared index — the entry point for
// callers that already indexed the items for other phases. When the sweep
// has a finite positive maximum ε it builds the merge structure once at
// that maximum and answers every point from it (one candidate pass total
// instead of one per ε); degenerate value sets keep the per-ε pass.
func SweepShared(shared *segclust.SharedIndex, epsValues []float64, workers int) []EntropyPoint {
	maxEps := math.Inf(-1)
	for _, eps := range epsValues {
		if eps > maxEps {
			maxEps = eps
		}
	}
	if maxEps > 0 && !math.IsInf(maxEps, 1) {
		if d, err := dendro.FromShared(context.Background(), shared, maxEps, workers); err == nil {
			if pts, err := SweepDendro(d, epsValues); err == nil {
				return pts
			}
		}
	}
	out := make([]EntropyPoint, len(epsValues))
	for i, eps := range epsValues {
		n := shared.NeighborhoodWeights(eps, workers)
		out[i] = EntropyPoint{Eps: eps, Entropy: Entropy(n), AvgNeighbors: Average(n)}
	}
	return out
}

// SweepDendro evaluates the entropy curve from a prebuilt merge structure:
// every point is answered by binary searches over the precomputed neighbor
// lists, with zero distance evaluations. Every eps must be ≤ d.MaxEps().
func SweepDendro(d *dendro.Dendrogram, epsValues []float64) ([]EntropyPoint, error) {
	out := make([]EntropyPoint, len(epsValues))
	var buf []float64
	for i, eps := range epsValues {
		n, err := d.NeighborhoodWeights(eps, buf)
		if err != nil {
			return nil, err
		}
		buf = n
		out[i] = EntropyPoint{Eps: eps, Entropy: Entropy(n), AvgNeighbors: Average(n)}
	}
	return out, nil
}

// Estimate holds the outcome of the ε search.
type Estimate struct {
	Eps          float64
	Entropy      float64
	AvgNeighbors float64
	MinLnsLo     int
	MinLnsHi     int
	Evaluations  int
}

// DefaultIterations is the default annealing step count; the search
// evaluates DefaultIterations+1 ε candidates (progress reporters size their
// phase with it).
const DefaultIterations = 60

// AnnealOptions tune the simulated-annealing ε search (reference [14] of
// the paper). The zero value is replaced by sensible defaults.
type AnnealOptions struct {
	Iterations int     // annealing steps (default DefaultIterations)
	InitTemp   float64 // initial temperature as a fraction of entropy scale (default 1.0)
	Cooling    float64 // geometric cooling factor per step (default 0.93)
	Seed       int64   // RNG seed (deterministic search)
	Workers    int     // parallelism for neighborhood evaluation
	OnEval     func()  // invoked after each ε evaluation (progress reporting)
}

func (o AnnealOptions) withDefaults() AnnealOptions {
	if o.Iterations <= 0 {
		o.Iterations = DefaultIterations
	}
	if o.InitTemp <= 0 {
		o.InitTemp = 1
	}
	if o.Cooling <= 0 || o.Cooling >= 1 {
		o.Cooling = 0.93
	}
	return o
}

// EstimateEps searches [lo, hi] for the ε minimising H(X) by simulated
// annealing and returns the estimate together with the suggested MinLns
// range. The search is deterministic for a fixed seed.
func EstimateEps(items []segclust.Item, lo, hi float64, opt lsdist.Options, index segclust.IndexKind, an AnnealOptions) (Estimate, error) {
	return EstimateEpsCtx(context.Background(), items, lo, hi, opt, index, an)
}

// EstimateEpsCtx is EstimateEps with cooperative cancellation: ctx is
// checked before every annealing step and threaded into each parallel
// neighborhood evaluation, so the search stops within one ε evaluation of
// ctx ending and returns ctx.Err(). The uncancelled search is bit-identical
// to EstimateEps (same seeded random walk, same evaluations).
func EstimateEpsCtx(ctx context.Context, items []segclust.Item, lo, hi float64, opt lsdist.Options, index segclust.IndexKind, an AnnealOptions) (Estimate, error) {
	// Re-checked by EstimateEpsSharedCtx, but rejecting here first keeps
	// invalid bounds from paying (and counting) an index build.
	if err := checkRange(lo, hi); err != nil {
		return Estimate{}, err
	}
	if len(items) == 0 {
		return Estimate{}, errors.New("params: no segments")
	}
	return EstimateEpsSharedCtx(ctx, segclust.NewSharedIndexFor(items, opt, segclust.BackendFor(index)), lo, hi, an)
}

func checkRange(lo, hi float64) error {
	if !(lo > 0) || !(hi > lo) {
		return errors.New("params: need 0 < lo < hi")
	}
	return nil
}

// EstimateEpsSharedCtx is EstimateEpsCtx over a prebuilt shared index: the
// pipeline builds the dataset's index once and hands it here, so the
// annealing search costs no second index construction. A bounded range
// precomputes the merge structure at hi and anneals over dendrogram
// weight queries — one candidate pass for the whole search instead of one
// per evaluation; an unbounded hi anneals over per-ε index queries. Either
// way the search is bit-identical to EstimateEpsCtx over a fresh index of
// the same backend: same seeded walk, same evaluations, same Estimate.
func EstimateEpsSharedCtx(ctx context.Context, shared *segclust.SharedIndex, lo, hi float64, an AnnealOptions) (Estimate, error) {
	if err := checkRange(lo, hi); err != nil {
		return Estimate{}, err
	}
	if shared.Len() == 0 {
		return Estimate{}, errors.New("params: no segments")
	}
	if !math.IsInf(hi, 1) {
		d, err := dendro.FromShared(ctx, shared, hi, an.Workers)
		if err != nil {
			return Estimate{}, err
		}
		return EstimateEpsDendroCtx(ctx, d, lo, hi, an)
	}
	return anneal(ctx, lo, hi, an, func(eps float64) ([]float64, error) {
		return shared.NeighborhoodWeightsCtx(ctx, eps, an.Workers)
	})
}

// EstimateEpsDendroCtx runs the annealing ε search entirely against a
// prebuilt merge structure: after the dendrogram build, the search issues
// zero distance evaluations (structurally — a Dendrogram holds no searcher
// to evaluate with). hi must not exceed d.MaxEps().
func EstimateEpsDendroCtx(ctx context.Context, d *dendro.Dendrogram, lo, hi float64, an AnnealOptions) (Estimate, error) {
	if err := checkRange(lo, hi); err != nil {
		return Estimate{}, err
	}
	if hi > d.MaxEps() {
		return Estimate{}, errors.New("params: hi exceeds the dendrogram's maximum ε")
	}
	if d.Len() == 0 {
		return Estimate{}, errors.New("params: no segments")
	}
	var buf []float64 // evaluations are serial; one buffer serves them all
	return anneal(ctx, lo, hi, an, func(eps float64) ([]float64, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n, err := d.NeighborhoodWeights(eps, buf)
		buf = n
		return n, err
	})
}

// anneal is the shared simulated-annealing loop (reference [14] of the
// paper): deterministic for a fixed seed, identical regardless of how
// weightsAt computes the ε-neighborhood cardinalities — that is what makes
// the dendrogram-backed search return the same Estimate as the per-ε one.
func anneal(ctx context.Context, lo, hi float64, an AnnealOptions, weightsAt func(eps float64) ([]float64, error)) (Estimate, error) {
	an = an.withDefaults()
	rng := rand.New(rand.NewSource(an.Seed))

	evals := 0
	energy := func(eps float64) (float64, float64, error) {
		evals++
		n, err := weightsAt(eps)
		if err != nil {
			return 0, 0, err
		}
		if an.OnEval != nil {
			an.OnEval()
		}
		return Entropy(n), Average(n), nil
	}

	cur := lo + (hi-lo)/2
	curE, curAvg, err := energy(cur)
	if err != nil {
		return Estimate{}, err
	}
	best, bestE, bestAvg := cur, curE, curAvg

	temp := an.InitTemp
	span := (hi - lo) / 2
	for i := 0; i < an.Iterations; i++ {
		if err := ctx.Err(); err != nil {
			return Estimate{}, err
		}
		cand := cur + rng.NormFloat64()*span*temp
		if math.IsNaN(cand) { // ∞ − ∞, only on an unbounded range: stay put
			cand = cur
		}
		for cand < lo || cand > hi { // reflect into range
			if cand < lo {
				cand = 2*lo - cand
			}
			if cand > hi {
				cand = 2*hi - cand
			}
		}
		candE, candAvg, err := energy(cand)
		if err != nil {
			return Estimate{}, err
		}
		if candE <= curE || rng.Float64() < math.Exp((curE-candE)/math.Max(temp*0.05, 1e-9)) {
			cur, curE, curAvg = cand, candE, candAvg
		}
		if curE < bestE {
			best, bestE, bestAvg = cur, curE, curAvg
		}
		temp *= an.Cooling
	}
	mlo, mhi := SuggestMinLns(bestAvg)
	return Estimate{
		Eps:          best,
		Entropy:      bestE,
		AvgNeighbors: bestAvg,
		MinLnsLo:     mlo,
		MinLnsHi:     mhi,
		Evaluations:  evals,
	}, nil
}

// EstimateEpsGrid is the exhaustive fallback: evaluate every ε in
// epsValues and return the entropy minimiser. Used for the figure sweeps
// and as the ground truth the annealer is tested against.
func EstimateEpsGrid(items []segclust.Item, epsValues []float64, opt lsdist.Options, index segclust.IndexKind, workers int) (Estimate, error) {
	if len(epsValues) == 0 {
		return Estimate{}, errors.New("params: no eps values")
	}
	pts := Sweep(items, epsValues, opt, index, workers)
	best := pts[0]
	for _, p := range pts[1:] {
		if p.Entropy < best.Entropy {
			best = p
		}
	}
	mlo, mhi := SuggestMinLns(best.AvgNeighbors)
	return Estimate{
		Eps:          best.Eps,
		Entropy:      best.Entropy,
		AvgNeighbors: best.AvgNeighbors,
		MinLnsLo:     mlo,
		MinLnsHi:     mhi,
		Evaluations:  len(epsValues),
	}, nil
}

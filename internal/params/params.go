// Package params implements the TRACLUS parameter-selection heuristic
// (Section 4.4): pick ε by minimising the Shannon entropy of the
// ε-neighborhood size distribution (Formula 10) with simulated annealing,
// then suggest MinLns as avg|Nε| + 1..3 at the chosen ε.
//
// The intuition from the paper: in a worst-case clustering |Nε(L)| is
// uniform (entropy maximal — ε far too small or far too large), while a
// good clustering makes |Nε(L)| skewed (entropy smaller).
//
// Every ε search runs over the multi-ε merge structure (internal/dendro),
// built once at the range maximum by the caller that owns the index: each
// evaluation of the annealing walk (EstimateEpsDendroCtx) or of a grid
// (EstimateEpsGrid, SweepDendro) is binary searches over sorted per-item
// neighbor lists, with zero further distance calls. A search range obeys
// one rule, CheckRange. The annealer itself takes its weights from any
// weightsAt(ε) source; fed the per-ε shared-index pass
// (segclust.SharedIndex.NeighborhoodWeightsCtx) it is the test oracle the
// dendrogram search is diffed against, bit for bit for order-independent
// weight sums (unit and integer weights, the universal case here).
package params

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dendro"
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
	Workers    int     // parallelism of a per-ε weights source (dendrogram evaluations are serial)
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

// maxHi is the largest hi a search range may have: the walk reflects
// candidates through 2·hi, which must stay finite.
const maxHi = math.MaxFloat64 / 2

// RangeRule states the one condition CheckRange enforces.
const RangeRule = "0 < lo < hi ≤ MaxFloat64/2"

// CheckRange is the one rule an ε search range obeys: 0 < lo < hi ≤ maxHi.
// NaN and ±Inf fail it, so a search never starts at an infinite midpoint
// nor builds its dendrogram at an infinite radius.
func CheckRange(lo, hi float64) error {
	if lo > 0 && hi > lo && hi <= maxHi {
		return nil
	}
	return fmt.Errorf("params: need %s, got [%v, %v]", RangeRule, lo, hi)
}

// EstimateEpsDendroCtx searches [lo, hi] for the ε minimising H(X) by
// simulated annealing over a prebuilt merge structure and returns the
// estimate together with the suggested MinLns range. After the dendrogram
// build the search issues zero distance evaluations (structurally — a
// Dendrogram holds no searcher to evaluate with); hi must not exceed
// d.MaxEps(). The search is deterministic for a fixed seed, and ctx is
// checked before every evaluation: a done ctx returns ctx.Err().
func EstimateEpsDendroCtx(ctx context.Context, d *dendro.Dendrogram, lo, hi float64, an AnnealOptions) (Estimate, error) {
	if err := CheckRange(lo, hi); err != nil {
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

// anneal is the simulated-annealing loop (reference [14] of the paper):
// deterministic for a fixed seed, identical regardless of how weightsAt
// computes the ε-neighborhood cardinalities — that is what makes the
// dendrogram-backed search return the same Estimate as the per-ε oracle.
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
		for cand < lo || cand > hi { // reflect into range
			if math.IsInf(cand, 0) { // the step or a reflection overflowed: stay put
				cand = cur
				continue
			}
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

// EstimateEpsGrid is the exhaustive search: evaluate every ε in epsValues
// against the merge structure and return the entropy minimiser. It is the
// ground truth the annealer is tested against. Every eps must be ≤
// d.MaxEps().
func EstimateEpsGrid(d *dendro.Dendrogram, epsValues []float64) (Estimate, error) {
	if len(epsValues) == 0 {
		return Estimate{}, errors.New("params: no eps values")
	}
	pts, err := SweepDendro(d, epsValues)
	if err != nil {
		return Estimate{}, err
	}
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

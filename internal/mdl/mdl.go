// Package mdl implements TRACLUS trajectory partitioning (Section 3 of the
// paper): choosing the characteristic points where a trajectory's behaviour
// changes rapidly, by minimum description length (MDL) optimisation.
//
// The MDL cost of a candidate partitioning is L(H) + L(D|H):
//
//	L(H)   = Σ log2(len(p_cj p_cj+1))                          (Formula 6)
//	L(D|H) = Σ Σ log2(d⊥(partition, inner)) + log2(dθ(...))    (Formula 7)
//
// The package provides the paper's approximate algorithm (Figure 8), an
// exact optimum via dynamic programming (the total cost is additive over
// consecutive characteristic-point pairs, so "every subset" reduces to a
// shortest path in a DAG), and the precision measure used to substantiate
// the paper's "about 80 % on average" claim (Section 3.3).
//
// Figure 8 is one pass over the points, but each step scores MDLPar over
// the whole current partition, so a partition of k points costs O(k²)
// (d⊥, dθ) pairs. The pass scores them with the batched distance kernel
// (lsdist.Kernel.PerpAngle, which skips the d∥ the cost does not encode)
// over kernel views of the raw segments, computed once per trajectory and
// held in the Partitioner's scratch. Each view's length is also the raw
// segment's MDLNoPar term, and MDLNoPar is carried from step to step as
// the same left-to-right sum. The MDLPar sum stops once it is past the
// partition test's limit, where the coordinates rule out a NaN addend
// (see safeCoord). The literal Figure-8 loop over MDLPar and MDLNoPar is
// the test oracle (figure8 and FuzzPartitionOracle in oracle_test.go);
// every characteristic point matches it exactly.
package mdl

import (
	"math"

	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/segpool"
)

// kernel scores the MDL cost's d⊥ and dθ. Their values do not depend on
// the weights, and the cost uses directed segments (Definition 3).
var kernel = lsdist.NewKernel(lsdist.DefaultOptions())

// Config controls partitioning.
type Config struct {
	// CostAdvantage is added to costnopar in the partitioning test
	// (Figure 8 line 6 as amended by Section 4.1.3): a positive value
	// suppresses partitioning and lengthens trajectory partitions, which
	// the paper reports improves clustering quality when partitions grow
	// by 20–30 %. Zero reproduces Figure 8 exactly.
	CostAdvantage float64
	// MinLength drops partitions shorter than this (degenerate segments
	// from repeated telemetry fixes). Zero keeps everything non-degenerate.
	MinLength float64
}

// DefaultConfig returns the paper's unmodified Figure-8 behaviour.
func DefaultConfig() Config { return Config{} }

// L encodes a non-negative real length or distance in bits under the
// paper's precision assumption δ = 1: L(x) = log2 x for x ≥ 1. Values
// below 1 encode in zero bits (the encoding argument assumes x large; we
// clamp so costs stay non-negative and monotone).
func L(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log2(x)
}

// MDLPar is the MDL cost of the trajectory stretch between points i and j
// assuming pi and pj are the only characteristic points: the description
// length of the single partition segment plus the encoding of every inner
// segment relative to it. Perpendicular and angle distances are used; the
// parallel distance is excluded because a trajectory encloses its
// partitions.
func MDLPar(pts []geom.Point, i, j int) float64 {
	part := segpool.Lift(geom.Segment{Start: pts[i], End: pts[j]})
	cost := L(part.Length)
	for k := i; k < j; k++ {
		inner := segpool.Lift(geom.Segment{Start: pts[k], End: pts[k+1]})
		dp, da := kernel.PerpAngle(&part, &inner)
		cost += L(dp) + L(da)
	}
	return cost
}

// MDLNoPar is the MDL cost of keeping the original trajectory between pi
// and pj: the description lengths of the raw segments, with L(D|H) = 0.
func MDLNoPar(pts []geom.Point, i, j int) float64 {
	var cost float64
	for k := i; k < j; k++ {
		cost += L(pts[k].Dist(pts[k+1]))
	}
	return cost
}

// ApproximatePartition runs the paper's approximate algorithm (Figure 8)
// and returns the indices of the chosen characteristic points, always
// including the first and last point. Trajectories with fewer than two
// points return all indices unchanged.
func ApproximatePartition(pts []geom.Point, cfg Config) []int {
	return NewPartitioner(cfg).characteristic(pts)
}

// characteristic is Figure 8 over the receiver's scratch: it returns
// ApproximatePartition(pts, p.cfg) in p.cps, with the raw segments' kernel
// views in p.views.
func (p *Partitioner) characteristic(pts []geom.Point) []int {
	n := len(pts)
	cps := p.cps[:0]
	if n <= 2 {
		for i := 0; i < n; i++ {
			cps = append(cps, i)
		}
		p.cps = cps
		return cps
	}
	views := p.views[:0]
	exitEarly := true
	for k, q := range pts {
		if k > 0 {
			views = append(views, segpool.Lift(geom.Segment{Start: pts[k-1], End: q}))
		}
		if !(math.Abs(q.X) <= safeCoord && math.Abs(q.Y) <= safeCoord) {
			exitEarly = false // also catches NaN
		}
	}
	p.views = views

	cps = append(cps, 0)
	startIndex, length := 0, 1
	var costNoPar float64 // MDLNoPar(pts, startIndex, currIndex), summed as MDLNoPar does
	for startIndex+length < n {
		currIndex := startIndex + length
		costNoPar += L(views[currIndex-1].Length)
		// The test starts at length 2. At length 1 a partition at
		// currIndex−1 is one at startIndex, which changes nothing, and
		// Figure 8 would repeat that step forever, appending startIndex
		// each time. Exact arithmetic never partitions there (the segment
		// is its own partition, d⊥ = dθ = 0), but a negative CostAdvantage
		// does, and so can rounding: a segment some 10⁸ long can score
		// dθ > 1 against itself when its cosine rounds below 1.
		if length > 1 && parExceeds(pts, views, startIndex, currIndex, costNoPar+p.cfg.CostAdvantage, exitEarly) {
			// Partition at the previous point and restart from it.
			cps = append(cps, currIndex-1)
			startIndex = currIndex - 1
			length = 1
			costNoPar = 0
		} else {
			length++
		}
	}
	if cps[len(cps)-1] != n-1 {
		cps = append(cps, n-1)
	}
	p.cps = cps
	return cps
}

// safeCoord bounds the coordinates under which the MDLPar sum may stop
// early. Every addend L(d⊥) + L(dθ) is ≥ 0 or NaN, and rounding is
// monotone, so a partial sum past the limit stays past it unless a later
// addend is NaN; Figure 8's comparison is then false, and stopping would
// partition where Figure 8 does not. With every |coordinate| ≤ B = 2²⁵⁶,
// no addend is NaN. In Kernel.stages:
//
//   - every difference is ≤ 2B, every product or sum of two products
//     (the projection numerator num, Len2, the cosine's dot product and
//     norm product) is ≤ 8B² = 2⁵¹⁵, and every length is ≤ 2²⁵⁸;
//   - the projection parameter u = num/Len2 is the one quotient that can
//     grow. Len2 ≠ 0 needs m² > 2⁻¹⁰⁷⁵ for m = max(|DX|, |DY|) (a smaller
//     square rounds to 0), so m > 2⁻⁵³⁸ and Len2 ≥ fl(m²) ≥ m²/2, while
//     |num| ≤ 5B·m + 2⁻¹⁰⁷³ (two products of at most 2B·m, each rounded
//     within half a subnormal step). So |u| ≤ 10B/m + 2⁻¹⁰⁷²/m² <
//     2⁷⁹⁸ + 8, and |DX·u| ≤ m·|u| ≤ 11B;
//   - the projections are then ≤ 12B, the endpoint offsets ≤ 2²⁶⁰, their
//     Hypots l1, l2 ≤ 2²⁶¹ and squares ≤ 2⁵²², so d⊥ = (l1² + l2²)/(l1 + l2)
//     ≤ 2(l1 + l2) + 2 is finite (l1 + l2 ≥ 2⁻¹⁰⁷⁴ when it is not 0);
//   - dθ is ‖lj‖·sin θ or ‖lj‖, both finite. θ is NaN only when the norm
//     product underflows to 0 beside a zero dot product, and then the
//     directed cost takes ‖lj‖.
//
// B is far beyond any trajectory's coordinates; beyond it (or on a
// non-finite coordinate) the sum runs in full, as MDLPar does.
const safeCoord = 0x1p256

// parExceeds reports whether MDLPar(pts, i, j) > limit, Figure 8's
// partition test, scoring with the raw segments' views. With exitEarly
// (safeCoord holds for every point) it stops at the first partial sum past
// limit.
func parExceeds(pts []geom.Point, views []segpool.Seg, i, j int, limit float64, exitEarly bool) bool {
	part := segpool.Lift(geom.Segment{Start: pts[i], End: pts[j]})
	cost := L(part.Length)
	for k := i; k < j; k++ {
		if exitEarly && cost > limit {
			return true
		}
		dp, da := kernel.PerpAngle(&part, &views[k])
		cost += L(dp) + L(da)
	}
	return cost > limit
}

// OptimalPartition returns the characteristic points minimising the total
// MDL cost exactly. The total cost of a partitioning {c1..cm} is
// Σ MDLPar(c_k, c_k+1), which is additive over consecutive pairs, so the
// optimum is the shortest path from 0 to n-1 in the DAG whose edge (i,j)
// costs MDLPar(i,j). O(n³) time — intended for evaluation, not production.
func OptimalPartition(pts []geom.Point) []int {
	n := len(pts)
	if n == 0 {
		return nil
	}
	if n <= 2 {
		cps := make([]int, n)
		for i := range cps {
			cps[i] = i
		}
		return cps
	}
	const inf = math.MaxFloat64
	dp := make([]float64, n)
	prev := make([]int, n)
	for i := 1; i < n; i++ {
		dp[i] = inf
		prev[i] = -1
	}
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if dp[i] == inf {
				continue
			}
			if c := dp[i] + MDLPar(pts, i, j); c < dp[j] {
				dp[j] = c
				prev[j] = i
			}
		}
	}
	// Reconstruct path n-1 -> 0.
	var rev []int
	for k := n - 1; k != -1; k = prev[k] {
		rev = append(rev, k)
		if k == 0 {
			break
		}
	}
	cps := make([]int, len(rev))
	for i, v := range rev {
		cps[len(rev)-1-i] = v
	}
	return cps
}

// PartitionCost returns the total MDL cost of a given set of characteristic
// point indices (which must be strictly increasing and bracket the
// trajectory).
func PartitionCost(pts []geom.Point, cps []int) float64 {
	var cost float64
	for i := 1; i < len(cps); i++ {
		cost += MDLPar(pts, cps[i-1], cps[i])
	}
	return cost
}

// Precision returns the fraction of approximate characteristic points that
// also appear in the exact solution — the measure behind the paper's
// "precision is about 80 % on average" (Section 3.3). Both sets include the
// trajectory endpoints; an empty approximation has precision 0.
func Precision(approx, exact []int) float64 {
	if len(approx) == 0 {
		return 0
	}
	in := make(map[int]bool, len(exact))
	for _, v := range exact {
		in[v] = true
	}
	hit := 0
	for _, v := range approx {
		if in[v] {
			hit++
		}
	}
	return float64(hit) / float64(len(approx))
}

// Partition applies ApproximatePartition to a trajectory and materialises
// the resulting trajectory partitions as segments, dropping degenerate or
// sub-MinLength pieces. The trajectory is deduplicated first so repeated
// fixes cannot yield zero-length partitions. For many trajectories prefer
// PartitionAll (or a reused Partitioner), which amortises scratch buffers.
func Partition(tr geom.Trajectory, cfg Config) []geom.Segment {
	// Segments only: the time column is not read, so the spans are not made.
	segs, _ := NewPartitioner(cfg).Partition(geom.Trajectory{Points: tr.Points})
	return segs
}

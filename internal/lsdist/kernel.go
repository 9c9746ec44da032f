package lsdist

// This file is the batched, block-at-a-time execution path of the TRACLUS
// distance: one Kernel call scores a whole candidate block against a single
// query instead of paying a closure or interface dispatch per pair. It is
// the MonetDB "breaking the memory wall" treatment of our hot loop — the
// operands come from the columnar segment pool of internal/segpool, the
// per-segment invariants (direction vector, squared length, length) are
// precomputed once at pool build instead of re-derived per pair, and the
// two projection parameters the perpendicular and parallel components both
// need are computed once and fused.
//
// Its consumers are every production distance: the grouping's ε-range
// refinement, the estimation dendrogram and appends (DistBlock, bounded),
// classification's nearest search (DistBlock, DistRange), the Formula-11
// quality rows (DistBlock at bound +Inf) and MDL partitioning (PerpAngle,
// the d⊥ and dθ of Formula 7 without d∥). stages holds the one copy of
// each component's arithmetic; the scalar functions of lsdist.go are the
// reference it is pinned against.
//
// The contract that makes the kernels safe to substitute anywhere is BIT
// IDENTITY: for every pair, each component and the combined distance equal
// the scalar ComponentsOpt/DistOpt results bit for bit
// (math.Float64bits-equal), because the kernel performs the same
// floating-point operations in the same order on the same inputs — the
// fusion only removes *recomputation* of deterministic intermediates, never
// reorders or reassociates them, and the transcendental calls (math.Hypot,
// math.Acos, math.Sin) are the identical stdlib functions. The
// kernel-equivalence suite in kernel_test.go and FuzzSegmentDistanceKernel
// pin this per component and combined, including the degenerate zero-length
// guards (documented at stages).
//
// One carve-out: NaN *payloads* are not part of the contract. When an
// intermediate overflows (Inf/Inf, Inf−Inf), both paths produce NaN, but
// which operand's payload bits survive is decided by instruction selection
// and register allocation (x86 NaN propagation keeps the first operand), so
// it can differ between builds of the *same* source. Every NaN compares
// false in the d <= eps predicates that consume distances, so results are
// unaffected; the tests compare bits-equal-or-both-NaN.
//
// Block scoring is bound-aware: an ε-range refinement only needs to know
// which pairs are within ε, and most candidates are not, so DistBlock stops
// scoring a pair once its running weighted sum is past the caller's bound.
// Pairs within the bound still get their exact, bit-identical distance;
// the rest get a value that is not within the bound. Exact scoring is the
// same loop with bound = +Inf.

import (
	"math"

	"repro/internal/segpool"
)

// Kernel scores blocks of pooled candidate segments against one query
// segment under a fixed set of Options. A Kernel is immutable and safe for
// concurrent use; per-call scratch lives in the caller's out slice.
type Kernel struct {
	wPerp, wPar, wAng float64
	undirected        bool
}

// NewKernel returns the batch kernel for the given options. Invalid weights
// fall back to the defaults, exactly as New does for the scalar closure.
func NewKernel(opt Options) *Kernel {
	if !opt.Weights.Valid() {
		opt.Weights = DefaultWeights()
	}
	return &Kernel{
		wPerp:      opt.Weights.Perpendicular,
		wPar:       opt.Weights.Parallel,
		wAng:       opt.Weights.Angle,
		undirected: opt.Undirected,
	}
}

// ensureLen returns out resized to n, reusing its backing array when it is
// large enough — block scoring must not allocate per call on the hot path.
// Growth is geometric (at least doubling): block sizes creep upward as
// denser neighborhoods come through a cursor, and timid growth would
// reallocate at every new maximum, turning the scratch into a cumulative
// O(k·max) allocation instead of O(max).
func ensureLen(out []float64, n int) []float64 {
	if cap(out) < n {
		c := 2 * cap(out)
		if c < n {
			c = n
		}
		return make([]float64, n, c)
	}
	return out[:n]
}

// DistBlock scores dist(q, pool[j]) for every candidate id j in ids against
// bound, writing into out index-aligned with ids (out is resized, reusing
// its capacity) and returning it. Candidate ids must be valid pool indices.
//
// A pair whose distance is ≤ bound gets its exact distance, bit-identical
// to the scalar DistOpt; every other pair gets a value that is not ≤ bound
// (the partial sum at which scoring stopped, or the exact distance). A
// caller that keeps the pairs with d <= bound therefore keeps exactly the
// pairs and bits exact scoring would, and bound = +Inf is exact scoring.
func (k *Kernel) DistBlock(p *segpool.Pool, q segpool.Seg, ids []int, bound float64, out []float64) []float64 {
	out = ensureLen(out, len(ids))
	// Hoist the columns once; re-slicing every column to the shared pool
	// length lets the compiler prove, from the X1 load alone, that the
	// remaining four indexed loads are in bounds (one bounds check per
	// candidate instead of five). The derived fields are recomputed from the
	// loaded coordinates — identical operations on identical inputs, so the
	// bits match what stored columns would have held.
	x1 := p.X1
	n := len(x1)
	y1, x2, y2 := p.Y1[:n], p.X2[:n], p.Y2[:n]
	ln := p.Length[:n]
	for t, j := range ids {
		cx1, cy1, cx2, cy2 := x1[j], y1[j], x2[j], y2[j]
		cdx, cdy := cx2-cx1, cy2-cy1
		c := segpool.Seg{
			X1: cx1, Y1: cy1, X2: cx2, Y2: cy2,
			DX: cdx, DY: cdy, Len2: cdx*cdx + cdy*cdy, Length: ln[j],
		}
		out[t] = k.score(&q, &c, bound)
	}
	return out
}

// DistRange scores dist(q, pool[j]) exactly for every j in [lo, hi),
// writing into out (resized to hi-lo, index-aligned with the range). It is
// exact DistBlock without the indirection vector — the shape exhaustive
// nearest scans use.
func (k *Kernel) DistRange(p *segpool.Pool, q segpool.Seg, lo, hi int, out []float64) []float64 {
	out = ensureLen(out, hi-lo)
	x1, y1 := p.X1[lo:hi], p.Y1[lo:hi]
	x2, y2 := p.X2[lo:hi], p.Y2[lo:hi]
	ln := p.Length[lo:hi]
	inf := math.Inf(1)
	for t := range x1 {
		cx1, cy1, cx2, cy2 := x1[t], y1[t], x2[t], y2[t]
		cdx, cdy := cx2-cx1, cy2-cy1
		c := segpool.Seg{
			X1: cx1, Y1: cy1, X2: cx2, Y2: cy2,
			DX: cdx, DY: cdy, Len2: cdx*cdx + cdy*cdy, Length: ln[t],
		}
		out[t] = k.score(&q, &c, inf)
	}
	return out
}

// Pair scores one pair of precomputed views exactly. Bit-identical to
// DistOpt(a, b, opt) on the corresponding segments.
func (k *Kernel) Pair(a, b segpool.Seg) float64 {
	return k.score(&a, &b, math.Inf(1))
}

// score is the per-pair core the block loops call: the longer/shorter
// ordering, then the bound-aware staged evaluation.
//
// score takes pointers because a Seg is eight floats — passing two by value
// spills out of the register-based calling convention and the copy shows up
// on the profile; the pointees never escape (stages only reads them).
func (k *Kernel) score(a, b *segpool.Seg, bound float64) float64 {
	li, lj := ordered(a, b)
	s, _, _, _ := k.stages(li, lj, bound, true)
	return s
}

// Components returns (d⊥, d∥, dθ) for one pair of precomputed views,
// performing the longer/shorter assignment internally. Bit-identical per
// component to ComponentsOpt on the corresponding segments.
func (k *Kernel) Components(a, b segpool.Seg) (dperp, dpar, dang float64) {
	li, lj := ordered(&a, &b)
	_, dperp, dpar, dang = k.stages(li, lj, math.Inf(1), true)
	return dperp, dpar, dang
}

// PerpAngle returns (d⊥, dθ) for one pair of views, performing the
// longer/shorter assignment internally, without computing d∥: the two
// components the MDL cost encodes (Formula 7). Each is bit-identical to
// the corresponding ComponentsOpt component. It takes pointers for the
// reason score does.
func (k *Kernel) PerpAngle(a, b *segpool.Seg) (dperp, dang float64) {
	li, lj := ordered(a, b)
	_, dperp, _, dang = k.stages(li, lj, math.Inf(1), false)
	return dperp, dang
}

// ordered is lsdist.order on pool views: the longer segment becomes Li, and
// exact-length ties break by lexicographic coordinate comparison so the
// distance stays symmetric. The precomputed Len2 is bit-equal to
// Segment.Length2 (negation squares equal), so these comparisons decide
// exactly as the scalar's.
func ordered(a, b *segpool.Seg) (li, lj *segpool.Seg) {
	switch {
	case a.Len2 > b.Len2:
		return a, b
	case a.Len2 < b.Len2:
		return b, a
	case segLess(a, b):
		return a, b
	default:
		return b, a
	}
}

// segLess is order's deterministic tie-break (lsdist.less) on pool views.
func segLess(a, b *segpool.Seg) bool {
	switch {
	case a.X1 != b.X1:
		return a.X1 < b.X1
	case a.Y1 != b.Y1:
		return a.Y1 < b.Y1
	case a.X2 != b.X2:
		return a.X2 < b.X2
	default:
		return a.Y2 < b.Y2
	}
}

// stages computes the components with li as the longer segment in three
// stages, adding each weighted term to the running sum s:
//
//  1. d⊥; stop if s = w⊥·d⊥ > bound.
//  2. d∥; stop if s = w⊥·d⊥ + w∥·d∥ > bound.
//  3. dθ; s is the full distance.
//
// With par false stage 2 does not run (PerpAngle), and s is then not a
// distance. A stage that does not run leaves its component 0. Stopping
// needs no tolerance: every addend is ≥ 0 (or NaN) and rounding is
// monotone, so the later terms can only keep or raise a partial sum, or
// make it NaN. A pair stopped at a partial sum > bound therefore has a
// full distance that is not ≤ bound either. The weighted terms carry explicit float64
// conversions, exactly as in DistOpt, so no platform fuses them into
// multiply-adds and the partial sums compared here are the ones the full
// sum is built from.
//
// Each component replicates the scalar operation sequence exactly:
//
//	u        = ((pₓ-li.X1)·li.DX + (p_y-li.Y1)·li.DY) / li.Len2   (Formula 4)
//	proj     = (li.X1 + li.DX·u, li.Y1 + li.DY·u)
//	d⊥       = Lehmer₂(‖lj.Start-proj₁‖, ‖lj.End-proj₂‖)          (Definition 1)
//	d∥       = min over both projections of min distance to li's ends (Definition 2)
//	dθ       = ‖lj‖·sin θ, or ‖lj‖ for directed θ ≥ 90°           (Definition 3)
//
// The scalar path derives the two projections twice — once inside
// PerpendicularOrdered, once inside ParallelOrdered; the kernel derives
// them once and reuses the identical bits.
//
// Zero-length guards (audited against the scalar implementations, pinned by
// TestZeroLengthSegmentGuards and the kernel-equivalence suite):
//   - li degenerate (Len2 == 0): the projection parameter is defined as 0,
//     collapsing the projection to li's single point (geom.ProjectParam).
//   - both perpendicular offsets zero: the Lehmer mean's 0/0 is defined as
//     0 (lsdist.lehmer2).
//   - either segment degenerate (Length == 0): the angle is defined as 0
//     (geom.Segment.Angle), so dθ = ‖lj‖·sin 0.
func (k *Kernel) stages(li, lj *segpool.Seg, bound float64, par bool) (s, dperp, dpar, dang float64) {
	// Projection parameters of lj's endpoints onto the line through li.
	var u1, u2 float64
	if li.Len2 != 0 {
		u1 = ((lj.X1-li.X1)*li.DX + (lj.Y1-li.Y1)*li.DY) / li.Len2
		u2 = ((lj.X2-li.X1)*li.DX + (lj.Y2-li.Y1)*li.DY) / li.Len2
	}
	p1x := li.X1 + li.DX*u1
	p1y := li.Y1 + li.DY*u1
	p2x := li.X1 + li.DX*u2
	p2y := li.Y1 + li.DY*u2

	// d⊥ (Definition 1): Lehmer mean of order 2 of the endpoint offsets.
	l1 := math.Hypot(lj.X1-p1x, lj.Y1-p1y)
	l2 := math.Hypot(lj.X2-p2x, lj.Y2-p2y)
	if t := l1 + l2; t != 0 {
		dperp = (l1*l1 + l2*l2) / t
	}
	if s = float64(k.wPerp * dperp); s > bound {
		return s, dperp, 0, 0
	}

	// d∥ (Definition 2): per projection the smaller Euclidean distance to
	// li's endpoints; MIN over the two projections.
	if par {
		g1 := math.Min(math.Hypot(p1x-li.X1, p1y-li.Y1), math.Hypot(p1x-li.X2, p1y-li.Y2))
		g2 := math.Min(math.Hypot(p2x-li.X1, p2y-li.Y1), math.Hypot(p2x-li.X2, p2y-li.Y2))
		dpar = math.Min(g1, g2)
		if s += float64(k.wPar * dpar); s > bound {
			return s, dperp, dpar, 0
		}
	}

	// dθ (Definition 3): the norms and ‖lj‖ are the precomputed lengths
	// (bit-equal to the Hypots the scalar recomputes).
	var theta float64
	if li.Length != 0 && lj.Length != 0 {
		c := (li.DX*lj.DX + li.DY*lj.DY) / (li.Length * lj.Length)
		if c > 1 {
			c = 1
		} else if c < -1 {
			c = -1
		}
		theta = math.Acos(c)
	}
	if k.undirected || theta < math.Pi/2 {
		dang = lj.Length * math.Sin(theta)
	} else {
		dang = lj.Length
	}
	return s + float64(k.wAng*dang), dperp, dpar, dang
}

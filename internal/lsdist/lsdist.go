// Package lsdist implements the TRACLUS line-segment distance function
// (Section 2.3 of the paper): the weighted sum of the perpendicular distance
// d⊥ (Definition 1), the parallel distance d∥ (Definition 2), and the angle
// distance dθ (Definition 3). The components are adapted from line-segment
// Hausdorff similarity measures used in pattern recognition.
//
// The distance is symmetric (Lemma 2) because the longer segment is always
// assigned the role of Li, but it is not a metric: it can violate the
// triangle inequality. Spatial indexes therefore rely on the geometric
// lower bound proved here (LowerBoundFactor) instead of metric pruning.
//
// Every production consumer scores through the batched Kernel (kernel.go):
// grouping, estimation and classification with DistBlock, MDL partitioning
// with PerpAngle, and the Formula-11 quality measure with exact DistBlock.
// The scalar Definitions below (ComponentsOpt, DistOpt, New) are the
// reference the kernel is bit-identical to, and they serve only the test
// oracles, RunWithDistance's caller-supplied distances, the experiment
// harness, and the fallbacks for non-finite coordinates, which no pool
// holds.
package lsdist

import (
	"math"

	"repro/internal/geom"
)

// Weights are the multipliers w⊥, w∥, wθ of the composite distance. The
// paper's default — equal weights of 1 — "generally works well in many
// applications" (Appendix B).
type Weights struct {
	Perpendicular float64
	Parallel      float64
	Angle         float64
}

// DefaultWeights returns the paper's default w⊥ = w∥ = wθ = 1.
func DefaultWeights() Weights { return Weights{1, 1, 1} }

// Valid reports whether all weights are finite and non-negative with at
// least one positive.
func (w Weights) Valid() bool {
	for _, v := range [...]float64{w.Perpendicular, w.Parallel, w.Angle} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return w.Perpendicular > 0 || w.Parallel > 0 || w.Angle > 0
}

// Options configure the distance function.
type Options struct {
	Weights Weights
	// Undirected treats segments as undirected lines: the angle distance
	// becomes ‖Lj‖·sin(θ) for all θ (remark after Definition 3), so
	// opposite headings are not penalised.
	Undirected bool
}

// DefaultOptions returns directed segments with the default weights.
func DefaultOptions() Options { return Options{Weights: DefaultWeights()} }

// order assigns the longer segment to Li and the shorter to Lj without
// losing generality (Definition 1 preamble). Ties are broken by
// lexicographic comparison of coordinates — a deterministic stand-in for the
// paper's "internal identifier" — so the distance stays exactly symmetric.
func order(a, b geom.Segment) (li, lj geom.Segment) {
	la, lb := a.Length2(), b.Length2()
	switch {
	case la > lb:
		return a, b
	case la < lb:
		return b, a
	case less(a, b):
		return a, b
	default:
		return b, a
	}
}

func less(a, b geom.Segment) bool {
	av := [4]float64{a.Start.X, a.Start.Y, a.End.X, a.End.Y}
	bv := [4]float64{b.Start.X, b.Start.Y, b.End.X, b.End.Y}
	for i := range av {
		if av[i] != bv[i] {
			return av[i] < bv[i]
		}
	}
	return false
}

// lehmer2 is the Lehmer mean of order 2 of two non-negative numbers,
// (a² + b²) / (a + b), with the empty case defined as 0.
func lehmer2(a, b float64) float64 {
	s := a + b
	if s == 0 {
		return 0
	}
	return (a*a + b*b) / s
}

// PerpendicularOrdered computes d⊥(Li, Lj) per Definition 1, assuming li is
// the longer segment. l⊥1 and l⊥2 are the distances from Lj's endpoints to
// their projections on the line through Li; d⊥ is their Lehmer mean of
// order 2.
func PerpendicularOrdered(li, lj geom.Segment) float64 {
	l1 := li.PerpendicularDist(lj.Start)
	l2 := li.PerpendicularDist(lj.End)
	return lehmer2(l1, l2)
}

// ParallelOrdered computes d∥(Li, Lj) per Definition 2, assuming li is the
// longer segment. For each projection point of Lj's endpoints onto Li's
// line, take the smaller Euclidean distance to Li's endpoints; d∥ is the
// minimum over the two endpoints (MIN, which the paper chooses over MAX for
// robustness to broken line segments).
func ParallelOrdered(li, lj geom.Segment) float64 {
	ps := li.Project(lj.Start)
	pe := li.Project(lj.End)
	l1 := math.Min(ps.Dist(li.Start), ps.Dist(li.End))
	l2 := math.Min(pe.Dist(li.Start), pe.Dist(li.End))
	return math.Min(l1, l2)
}

// AngleOrdered computes dθ(Li, Lj) per Definition 3, assuming lj is the
// shorter segment: ‖Lj‖·sin(θ) when θ < 90°, and the whole length ‖Lj‖ when
// the directions differ by 90° or more. With undirected=true the distance is
// ‖Lj‖·sin(θ) for every θ.
func AngleOrdered(li, lj geom.Segment, undirected bool) float64 {
	theta := li.Angle(lj)
	l := lj.Length()
	if undirected || theta < math.Pi/2 {
		return l * math.Sin(theta)
	}
	return l
}

// Components returns (d⊥, d∥, dθ) for an arbitrary pair of segments,
// performing the longer/shorter assignment internally.
func Components(a, b geom.Segment) (dperp, dpar, dang float64) {
	return ComponentsOpt(a, b, DefaultOptions())
}

// ComponentsOpt is Components with explicit options.
func ComponentsOpt(a, b geom.Segment, opt Options) (dperp, dpar, dang float64) {
	li, lj := order(a, b)
	return PerpendicularOrdered(li, lj),
		ParallelOrdered(li, lj),
		AngleOrdered(li, lj, opt.Undirected)
}

// Dist returns the TRACLUS distance with default options:
// dist = w⊥·d⊥ + w∥·d∥ + wθ·dθ.
func Dist(a, b geom.Segment) float64 {
	return DistOpt(a, b, DefaultOptions())
}

// DistOpt returns the TRACLUS distance under the given options. The
// explicit float64 conversions round every weighted term on its own, so no
// platform fuses a product into a multiply-add: the sum is the one the
// block kernel's bounded scoring builds term by term (see Kernel.DistBlock).
func DistOpt(a, b geom.Segment, opt Options) float64 {
	dp, dl, da := ComponentsOpt(a, b, opt)
	w := opt.Weights
	return float64(w.Perpendicular*dp) + float64(w.Parallel*dl) + float64(w.Angle*da)
}

// Func is the signature shared by all pairwise segment distances in this
// repository. Distances may be evaluated from many goroutines at once (the
// clustering pipeline fans neighborhood queries out across workers); every
// Func in this package is a pure function and therefore safe, and custom
// implementations must be too — or the caller must limit Workers to 1.
type Func func(a, b geom.Segment) float64

// New returns a distance Func closed over the options. Invalid weights fall
// back to the defaults.
func New(opt Options) Func {
	if !opt.Weights.Valid() {
		opt.Weights = DefaultWeights()
	}
	return func(a, b geom.Segment) float64 { return DistOpt(a, b, opt) }
}

// LowerBoundFactor returns c > 0 such that for all segment pairs
//
//	dist(a, b) ≥ c · mindist(a, b)
//
// where mindist is the minimum Euclidean distance between the segments.
//
// Derivation (DESIGN.md §3): let Lj's endpoint with the smaller parallel
// contribution be q, with perpendicular offset l⊥ from Li's line and
// nearest-endpoint distance l∥ = d∥ along it. The Euclidean distance from q
// to the segment Li is at most sqrt(l⊥² + over²) ≤ l⊥ + d∥ where over ≤ d∥
// is the projection's overshoot beyond Li. The Lehmer mean of order 2
// satisfies L2(x, y) ≥ max(x, y)/2 ≥ l⊥/2, so
//
//	dist ≥ w⊥·d⊥ + w∥·d∥ ≥ min(w⊥, w∥)·(l⊥/2 + d∥) ≥ min(w⊥, w∥)/2·(l⊥ + d∥)
//	     ≥ min(w⊥, w∥)/2 · mindist.
//
// A returned factor of 0 means no positional pruning is possible (one of
// the positional weights is 0) and indexes must fall back to full scans.
func LowerBoundFactor(w Weights) float64 {
	m := math.Min(w.Perpendicular, w.Parallel)
	if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
		return 0
	}
	return m / 2
}

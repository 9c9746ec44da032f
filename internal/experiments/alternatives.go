package experiments

import (
	"math"

	"repro/internal/geom"
)

// This file implements the alternative segment distances the paper
// positions its function against, used by the ablation experiments:
//
//   - EndpointSum: the naive "sum of the distances of endpoints" that
//     Appendix A shows cannot rank a parallel segment against an
//     opposite-direction one;
//   - Hausdorff: the line-segment Hausdorff distance of Chen, Leung, Gao
//     (Pattern Recognition 2003 — reference [4]), the measure the paper's
//     three components were adapted *from*.
//
// Both are true segment distances with the lsdist.Func signature, so the
// clustering engine can run under any of them for comparison.

// EndpointSum returns the naive endpoint-pair distance: the smaller of the
// two endpoint matchings (start–start + end–end vs start–end + end–start).
// Taking the minimum makes it symmetric and orientation-forgiving — the
// strongest version of the naive measure, and still insufficient
// (Appendix A).
func EndpointSum(a, b geom.Segment) float64 {
	d1 := a.Start.Dist(b.Start) + a.End.Dist(b.End)
	d2 := a.Start.Dist(b.End) + a.End.Dist(b.Start)
	return math.Min(d1, d2)
}

// Hausdorff returns the Hausdorff distance between the two closed
// segments: max over points of one segment of the distance to the other,
// symmetrised. For line segments the directed Hausdorff distance is
// attained at an endpoint, so the computation is exact, not sampled.
func Hausdorff(a, b geom.Segment) float64 {
	return math.Max(directedHausdorff(a, b), directedHausdorff(b, a))
}

// directedHausdorff is max_{p∈a} dist(p, b). For a segment source the
// maximum of the (convex) distance-to-b function over segment a is attained
// at one of a's endpoints.
func directedHausdorff(a, b geom.Segment) float64 {
	return math.Max(b.DistToPoint(a.Start), b.DistToPoint(a.End))
}

// MidpointDist returns the Euclidean distance between segment midpoints —
// the crudest plausible baseline, blind to both extent and direction.
func MidpointDist(a, b geom.Segment) float64 {
	return a.Midpoint().Dist(b.Midpoint())
}

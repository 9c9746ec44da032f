package experiments

import (
	"math"

	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/mdl"
)

// This file contains the *rejected* design alternative the paper discusses
// when motivating the length-based L(H) (Section 3.2 and Appendix C): an
// L(H) that encodes the coordinate values of a partition's endpoints. It
// exists so the Appendix C experiment and the ablation benchmarks can show
// why the paper's formulation (mdl.MDLPar) is the right one — the
// endpoint-based cost is not shift invariant, so identical shapes at
// different coordinates partition (and therefore cluster) differently.

// lCoord encodes one coordinate magnitude in bits (δ = 1, like mdl.L).
func lCoord(v float64) float64 {
	return mdl.L(math.Abs(v))
}

// LHEndpoints is the endpoint-coordinate hypothesis cost of a single
// partition p_i p_j: the encoded magnitudes of both endpoints' coordinates.
func LHEndpoints(pts []geom.Point, i, j int) float64 {
	return lCoord(pts[i].X) + lCoord(pts[i].Y) + lCoord(pts[j].X) + lCoord(pts[j].Y)
}

// MDLParEndpointLH is mdl.MDLPar with the endpoint-based L(H) substituted
// for the length-based one; L(D|H) is unchanged.
func MDLParEndpointLH(pts []geom.Point, i, j int) float64 {
	part := geom.Segment{Start: pts[i], End: pts[j]}
	cost := LHEndpoints(pts, i, j)
	for k := i; k < j; k++ {
		inner := geom.Segment{Start: pts[k], End: pts[k+1]}
		dp, _, da := lsdist.Components(part, inner)
		cost += mdl.L(dp) + mdl.L(da)
	}
	return cost
}

// MDLNoParEndpointLH is the corresponding no-partition cost: every raw
// point's coordinates are encoded.
func MDLNoParEndpointLH(pts []geom.Point, i, j int) float64 {
	var cost float64
	for k := i; k <= j; k++ {
		cost += lCoord(pts[k].X) + lCoord(pts[k].Y)
	}
	return cost
}

// ApproximatePartitionEndpointLH runs the Figure-8 algorithm with the
// endpoint-based costs — the ablation counterpart of
// mdl.ApproximatePartition. Like mdl's loop, its test starts at length 2:
// at length 1 a partition at currIndex−1 is one at startIndex, which
// changes nothing, and Figure 8 would repeat that step forever, appending
// startIndex each time. There costPar is costNoPar plus L(d⊥)+L(dθ) of a
// segment against itself, so a negative CostAdvantage would partition, and
// so would a segment long enough for its self-distance to round above 1.
func ApproximatePartitionEndpointLH(pts []geom.Point, cfg mdl.Config) []int {
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
	cps := []int{0}
	startIndex, length := 0, 1
	for startIndex+length < n {
		currIndex := startIndex + length
		if length > 1 && MDLParEndpointLH(pts, startIndex, currIndex) >
			MDLNoParEndpointLH(pts, startIndex, currIndex)+cfg.CostAdvantage {
			cps = append(cps, currIndex-1)
			startIndex = currIndex - 1
			length = 1
		} else {
			length++
		}
	}
	if cps[len(cps)-1] != n-1 {
		cps = append(cps, n-1)
	}
	return cps
}

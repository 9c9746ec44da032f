package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/mdl"
	"repro/internal/optics"
	"repro/internal/regmix"
	"repro/internal/render"
	"repro/internal/segclust"
	"repro/internal/synth"
)

// Fig1 regenerates the paper's motivating example (Figure 1): five
// trajectories share one common sub-trajectory and then diverge. TRACLUS
// discovers the common corridor as a cluster with a representative
// trajectory lying on it; the whole-trajectory regression-mixture baseline
// (Gaffney & Smyth) cannot — its cluster mean curves stay far from the
// corridor because each models an entire divergent trajectory.
func Fig1(Size) *Report {
	r := newReport("fig1", "Common sub-trajectory discovery vs whole-trajectory clustering")
	trs := synth.Figure1(2.0, 7)

	// The corridor the five trajectories share: y=300, x ∈ [200, 500].
	corridor := geom.Segment{Start: geom.Pt(200, 300), End: geom.Pt(500, 300)}

	// The Figure-1 trajectories are nearly noise-free, so a small
	// cost advantage suffices (the shared constant tuned for jittery
	// telemetry would merge partitions across the corridor's corners).
	pcfg := core.DefaultConfig()
	pcfg.Partition = mdl.Config{CostAdvantage: 3}
	items := core.PartitionAll(trs, pcfg)
	out, err := runTraclus(items, 30, 3)
	if err != nil {
		r.addf("error: %v", err)
		return r
	}
	r.addf("TRACLUS: clusters=%d", out.NumClusters())
	r.Values["traclusClusters"] = float64(out.NumClusters())
	bestDist := math.Inf(1)
	var reps [][]geom.Point
	for _, c := range out.Clusters {
		reps = append(reps, c.Representative)
		if d := meanDistToSegment(c.Representative, corridor); d < bestDist {
			bestDist = d
		}
	}
	r.addf("TRACLUS: closest representative is %.1f units from the common corridor on average", bestDist)
	r.Values["traclusRepDist"] = bestDist

	// Whole-trajectory baseline: one mean curve per component.
	fit, err := regmix.Fit(trs, regmix.Config{K: 3, Degree: 3, Seed: 11})
	if err != nil {
		r.addf("regmix error: %v", err)
		return r
	}
	worst := math.Inf(1)
	for _, comp := range fit.Components {
		curve := comp.MeanCurve(40)
		// Restrict to the part of the curve above the corridor's x-range.
		if d := meanDistToSegment(curve, corridor); d < worst {
			worst = d
		}
	}
	r.addf("regression mixture (K=3): closest mean curve is %.1f units from the corridor on average", worst)
	r.Values["regmixCurveDist"] = worst
	r.addf("conclusion: partition-and-group exposes the corridor; whole-trajectory clustering does not")

	r.SVGs["fig1_subtrajectory.svg"] = render.ClusterSVG(trs, reps)
	return r
}

func meanDistToSegment(pts []geom.Point, s geom.Segment) float64 {
	if len(pts) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, p := range pts {
		sum += s.DistToPoint(p)
	}
	return sum / float64(len(pts))
}

// Fig23 regenerates the Section 5.5 robustness experiment: a synthetic
// corridor scene where 25 % of trajectories are random-walk noise. The
// clusters must still be identified.
func Fig23(sz Size) *Report {
	r := newReport("fig23", "Robustness to noise (synthetic data, 25 % noise)")
	per, pts := 12, 26
	if sz == Small {
		per, pts = 8, 18
	}
	base := synth.CorridorScene(4, per, pts, 4, 21)
	mixed := synth.MixNoise(base, 0.25, pts, 22)
	r.addf("trajectories=%d of which noise=%d (%.0f%%)", len(mixed), len(mixed)-len(base),
		100*float64(len(mixed)-len(base))/float64(len(mixed)))

	items := partitionItems(mixed)
	out, err := runTraclus(items, 30, 6)
	if err != nil {
		r.addf("error: %v", err)
		return r
	}
	r.addf("clusters=%d (scene has 4 corridors)", out.NumClusters())
	r.Values["clusters"] = float64(out.NumClusters())

	// How many noise-trajectory segments leaked into clusters?
	noiseIDs := map[int]bool{}
	for _, tr := range mixed[len(base):] {
		noiseIDs[tr.ID] = true
	}
	leaked, clustered := 0, 0
	for i, cl := range out.Result.ClusterOf {
		if cl == segclust.Noise {
			continue
		}
		clustered++
		if noiseIDs[items[i].TrajID] {
			leaked++
		}
	}
	leakFrac := 0.0
	if clustered > 0 {
		leakFrac = float64(leaked) / float64(clustered)
	}
	r.addf("noise segments inside clusters: %d of %d clustered segments (%.1f%%)", leaked, clustered, 100*leakFrac)
	r.Values["leakFrac"] = leakFrac

	var reps [][]geom.Point
	for _, c := range out.Clusters {
		reps = append(reps, c.Representative)
	}
	r.SVGs["fig23_noise_robustness.svg"] = render.ClusterSVG(mixed, reps)
	r.Lines = append(r.Lines, "", render.ClusterMap(110, 34, mixed, reps))
	return r
}

// Sec33 measures the precision of the approximate partitioning algorithm
// against the exact MDL optimum (Section 3.3: "the precision is about 80 %
// on average").
func Sec33(sz Size) *Report {
	r := newReport("sec33", "Approximate partitioning precision vs exact MDL optimum")
	nTrajs, nPts := 60, 40
	if sz == Small {
		nTrajs, nPts = 16, 24
	}
	rng := rand.New(rand.NewSource(33))
	var sum float64
	count := 0
	for t := 0; t < nTrajs; t++ {
		pts := wigglyTrajectory(rng, nPts)
		approx := mdl.ApproximatePartition(pts, mdl.Config{})
		exact := mdl.OptimalPartition(pts)
		p := mdl.Precision(approx, exact)
		sum += p
		count++
	}
	avg := sum / float64(count)
	r.addf("trajectories=%d points-each=%d", nTrajs, nPts)
	r.addf("average precision=%.1f%% (paper reports about 80%%)", 100*avg)
	r.Values["precision"] = avg
	return r
}

// wigglyTrajectory builds a trajectory with piecewise-consistent headings —
// the regime where characteristic points are meaningful.
func wigglyTrajectory(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, 0, n)
	pos := geom.Pt(rng.Float64()*100, rng.Float64()*100)
	heading := rng.Float64() * 2 * math.Pi
	pts = append(pts, pos)
	for len(pts) < n {
		if rng.Float64() < 0.2 { // occasional sharp behaviour change
			heading += (rng.Float64() - 0.5) * 2.5
		} else {
			heading += (rng.Float64() - 0.5) * 0.15
		}
		step := 8 + rng.Float64()*6
		pos = pos.Add(geom.Pt(math.Cos(heading), math.Sin(heading)).Scale(step))
		pts = append(pts, pos)
	}
	return pts
}

// AppendixA regenerates the Appendix A example: the naive
// sum-of-endpoint-distances cannot distinguish a parallel segment from an
// opposite-direction one, while the TRACLUS distance can (the angle
// distance breaks the tie).
func AppendixA(Size) *Report {
	r := newReport("appendixA", "Advantage over the sum of endpoint distances")
	l1 := geom.Seg(0, 0, 200, 0)
	l2 := geom.Seg(100, 100, 300, 100) // parallel, same direction
	l3 := geom.Seg(300, 100, 100, 100) // same location, opposite direction

	naive := func(a, b geom.Segment) float64 {
		// Best unordered endpoint matching (the stronger form of the naive
		// measure; the ordered form is even weaker).
		d1 := a.Start.Dist(b.Start) + a.End.Dist(b.End)
		d2 := a.Start.Dist(b.End) + a.End.Dist(b.Start)
		return math.Min(d1, d2)
	}
	r.addf("naive(L1,L2)=%.1f naive(L1,L3)=%.1f (tie: both 200*sqrt(2)=%.1f)",
		naive(l1, l2), naive(l1, l3), 200*math.Sqrt2)
	d12 := lsdist.Dist(l1, l2)
	d13 := lsdist.Dist(l1, l3)
	r.addf("traclus(L1,L2)=%.1f traclus(L1,L3)=%.1f (angle distance separates them)", d12, d13)
	r.Values["naiveTie"] = naive(l1, l2) - naive(l1, l3)
	r.Values["traclusGap"] = d13 - d12
	return r
}

// AppendixB demonstrates that distance weights change the clustering
// (Appendix B: "assigning different weights may sometimes produce more
// interesting clustering results").
func AppendixB(sz Size) *Report {
	r := newReport("appendixB", "Effect of distance weights")
	items := partitionItems(HurricaneData(sz))
	for _, wTheta := range []float64{0.25, 1, 4} {
		opt := lsdist.Options{Weights: lsdist.Weights{Perpendicular: 1, Parallel: 1, Angle: wTheta}}
		res, err := segclust.Run(items, segclust.Config{
			Eps: 30, MinLns: 6, Options: opt,
		})
		if err != nil {
			r.addf("error: %v", err)
			continue
		}
		r.addf("w_theta=%.2f -> clusters=%d noise=%d", wTheta, res.NumClusters(), res.NoiseCount())
		r.Values[fmt.Sprintf("clustersWTheta%.2f", wTheta)] = float64(res.NumClusters())
	}
	return r
}

// AppendixC regenerates the shift-invariance example: TR1/TR2 at low
// coordinates and their copies TR3/TR4 shifted by (10000, 10000) must be
// partitioned at the same points under the length-based L(H), but not
// necessarily under an endpoint-coordinate-based L(H).
func AppendixC(Size) *Report {
	r := newReport("appendixC", "Shift invariance of the length-based L(H)")
	tr1 := []geom.Point{geom.Pt(100, 100), geom.Pt(200, 200), geom.Pt(300, 100)}
	tr2 := []geom.Point{geom.Pt(200, 200), geom.Pt(300, 300), geom.Pt(400, 200)}
	shift := geom.Pt(10000, 10000)
	tr3 := translatePts(tr1, shift)
	tr4 := translatePts(tr2, shift)

	cfg := mdl.Config{}
	same := equalInts(mdl.ApproximatePartition(tr1, cfg), mdl.ApproximatePartition(tr3, cfg)) &&
		equalInts(mdl.ApproximatePartition(tr2, cfg), mdl.ApproximatePartition(tr4, cfg))
	r.addf("length-based L(H): shifted copies partition identically = %v", same)
	r.Values["shiftInvariant"] = boolTo01(same)

	// Endpoint-based L(H) ablation: costs grow with coordinates.
	lowCost := MDLParEndpointLH(tr1, 0, 2)
	highCost := MDLParEndpointLH(tr3, 0, 2)
	r.addf("endpoint-based L(H) cost: low coords=%.2f, shifted=%.2f (not shift invariant)", lowCost, highCost)
	r.Values["endpointCostGap"] = highCost - lowCost
	return r
}

func translatePts(pts []geom.Point, d geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Add(d)
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// AppendixD regenerates the OPTICS comparison: on matched data, the
// reachability distances of line segments concentrate near ε (because the
// pairwise distance inside a segment ε-neighborhood is not bounded by 2ε),
// making clusters harder to separate from noise than with points — the
// paper's argument for choosing DBSCAN.
func AppendixD(sz Size) *Report {
	r := newReport("appendixD", "Why DBSCAN rather than OPTICS for segments")
	nPerCluster := 60
	if sz == Small {
		nPerCluster = 25
	}
	rng := rand.New(rand.NewSource(44))
	var pts []geom.Point
	for c := 0; c < 3; c++ {
		cx, cy := 200+300*float64(c), 300.0
		for i := 0; i < nPerCluster; i++ {
			pts = append(pts, geom.Pt(cx+rng.NormFloat64()*18, cy+rng.NormFloat64()*18))
		}
	}
	const eps = 30.0
	const minPts = 6

	pointDist := func(i, j int) float64 { return pts[i].Dist(pts[j]) }
	pr, err := optics.Run(len(pts), pointDist, optics.Config{Eps: eps, MinPts: minPts})
	if err != nil {
		r.addf("error: %v", err)
		return r
	}

	// Matched segments: same centers, fixed length, mostly-aligned
	// orientation (a corridor-like cluster). The positional spread is
	// identical to the point data set; only the object type changes.
	segs := make([]geom.Segment, len(pts))
	for i, p := range pts {
		ang := rng.NormFloat64() * 0.35
		d := geom.Pt(math.Cos(ang), math.Sin(ang)).Scale(15)
		segs[i] = geom.Segment{Start: p.Sub(d), End: p.Add(d)}
	}
	segDist := func(i, j int) float64 { return lsdist.Dist(segs[i], segs[j]) }
	sr, err := optics.Run(len(segs), segDist, optics.Config{Eps: eps, MinPts: minPts})
	if err != nil {
		r.addf("error: %v", err)
		return r
	}

	_, pMean, pNear := pr.ReachStats(eps, 0.25)
	_, sMean, sNear := sr.ReachStats(eps, 0.25)
	r.addf("points:   mean reachability=%.2f fraction within 25%% of eps=%.2f", pMean, pNear)
	r.addf("segments: mean reachability=%.2f fraction within 25%% of eps=%.2f", sMean, sNear)
	r.addf("segments' reachability concentrates closer to eps, as Appendix D argues")
	r.Values["pointMeanReach"] = pMean
	r.Values["segMeanReach"] = sMean
	r.Values["pointNearEps"] = pNear
	r.Values["segNearEps"] = sNear
	return r
}

// Extensions demonstrates the Section 7.1 extensions: undirected
// trajectories (opposite-direction corridors merge) and weighted
// trajectories (down-weighted trajectories stop supporting a cluster).
func Extensions(Size) *Report {
	r := newReport("extensions", "Undirected and weighted trajectory extensions")

	// Two corridors at the same location, opposite directions.
	var trs []geom.Trajectory
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 6; i++ {
		var pts []geom.Point
		for s := 0; s <= 20; s++ {
			x := 100 + 30*float64(s)
			pts = append(pts, geom.Pt(x+rng.NormFloat64()*3, 300+rng.NormFloat64()*3))
		}
		if i%2 == 1 { // reverse half of them
			for l, r2 := 0, len(pts)-1; l < r2; l, r2 = l+1, r2-1 {
				pts[l], pts[r2] = pts[r2], pts[l]
			}
		}
		trs = append(trs, geom.Trajectory{ID: i, Weight: 1, Points: pts})
	}
	items := partitionItems(trs)

	directed, err := segclust.Run(items, segclust.Config{
		Eps: 25, MinLns: 3, Options: lsdist.DefaultOptions(),
	})
	if err != nil {
		r.addf("error: %v", err)
		return r
	}
	undirected, err := segclust.Run(items, segclust.Config{
		Eps: 25, MinLns: 3,
		Options: lsdist.Options{Weights: lsdist.DefaultWeights(), Undirected: true},
	})
	if err != nil {
		r.addf("error: %v", err)
		return r
	}
	r.addf("directed:   clusters=%d (opposite headings stay apart)", directed.NumClusters())
	r.addf("undirected: clusters=%d (opposite headings merge)", undirected.NumClusters())
	r.Values["directedClusters"] = float64(directed.NumClusters())
	r.Values["undirectedClusters"] = float64(undirected.NumClusters())

	// Weighted: keep only same-direction trajectories, then down-weight
	// all but two so the weighted neighborhood cardinality drops below
	// MinLns.
	weighted := make([]segclust.Item, len(items))
	copy(weighted, items)
	for i := range weighted {
		if weighted[i].TrajID >= 2 {
			weighted[i].Weight = 0.1
		}
	}
	wres, err := segclust.Run(weighted, segclust.Config{
		Eps: 25, MinLns: 3, MinTrajs: 2, Options: lsdist.DefaultOptions(),
	})
	if err != nil {
		r.addf("error: %v", err)
		return r
	}
	r.addf("weighted (4 of 6 trajectories at weight 0.1): clusters=%d", wres.NumClusters())
	r.Values["weightedClusters"] = float64(wres.NumClusters())
	return r
}

package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/mdl"
	"repro/internal/segclust"
	"repro/internal/simplify"
	"repro/internal/synth"
	"repro/internal/validate"
)

// DistanceAblation compares clustering under the paper's three-component
// distance against the alternatives it was designed to beat: the naive
// endpoint-sum (Appendix A), the segment Hausdorff distance the components
// were adapted from (reference [4]), and a midpoint-only baseline. Ground
// truth is the planted corridor id of each segment (synthetic corridor
// scene), and agreement is scored with the adjusted Rand index and NMI —
// the quantitative counterpart of the paper's visual inspection.
func DistanceAblation(sz Size) *Report {
	r := newReport("ablationDist", "Distance-function ablation (planted directional flows)")
	per, pts := 12, 26
	if sz == Small {
		per, pts = 8, 18
	}
	// Three planted flows that only a direction-aware distance separates:
	// an eastbound and a westbound flow sharing one road, plus a
	// northbound flow crossing it.
	base := directionalScene(per, pts)
	mixed := synth.MixNoise(base, 0.2, pts, 32)
	items := partitionItems(mixed)

	// Ground truth per segment: the flow its trajectory belongs to, noise
	// trajectories labelled -1.
	truth := make([]int, len(items))
	for i, it := range items {
		if it.TrajID < len(base) {
			truth[i] = it.TrajID / per
		} else {
			truth[i] = -1
		}
	}

	cfg := segclust.Config{Eps: 30, MinLns: 6, Options: lsdist.DefaultOptions()}
	variants := []struct {
		name string
		dist lsdist.Func
		eps  float64
	}{
		{"traclus", lsdist.Dist, 30},
		{"hausdorff", Hausdorff, 30},
		{"endpoint-sum", EndpointSum, 60}, // sums two legs; double ε for fairness
		{"midpoint", MidpointDist, 30},
	}
	for _, v := range variants {
		c := cfg
		c.Eps = v.eps
		res, err := segclust.RunWithDistance(items, v.dist, c)
		if err != nil {
			r.addf("%s: error: %v", v.name, err)
			continue
		}
		ari, err := validate.AdjustedRand(res.ClusterOf, truth)
		if err != nil {
			r.addf("%s: error: %v", v.name, err)
			continue
		}
		nmi, _ := validate.NMI(res.ClusterOf, truth)
		noiseAgree, _ := validate.NoiseAgreement(res.ClusterOf, truth)
		r.addf("%-12s clusters=%d ARI=%.3f NMI=%.3f noiseAgreement=%.3f",
			v.name, res.NumClusters(), ari, nmi, noiseAgree)
		r.Values[fmt.Sprintf("ari_%s", v.name)] = ari
		r.Values[fmt.Sprintf("clusters_%s", v.name)] = float64(res.NumClusters())
	}
	r.addf("the three-component distance should dominate on ARI: direction-blind")
	r.addf("distances merge the opposite flows into one cluster")
	return r
}

// PartitionAblation compares MDL partitioning (the paper's Section 3
// contribution) against textbook simplifiers — Douglas–Peucker, uniform
// sampling, and top-turning-angle selection — by running the same grouping
// phase on each partitioning of the hurricane data and scoring (a) the
// preciseness/conciseness trade-off the MDL criterion optimises and (b) the
// downstream clustering. The MDL choice should sit on a good
// deviation-vs-compression trade-off *without* needing a hand-picked
// tolerance, which is its selling point.
func PartitionAblation(sz Size) *Report {
	r := newReport("ablationPart", "Partitioning ablation (MDL vs classical simplifiers)")
	trs := HurricaneData(sz)

	type variant struct {
		name string
		cps  func(pts []geom.Point) []int
	}
	variants := []variant{
		{"mdl", func(pts []geom.Point) []int {
			return mdl.ApproximatePartition(pts, mdl.Config{CostAdvantage: partitionCostAdvantage})
		}},
		{"douglas-peucker", func(pts []geom.Point) []int { return simplify.DouglasPeucker(pts, 12) }},
		{"uniform", func(pts []geom.Point) []int { return simplify.Uniform(pts, 8) }},
		{"top-angle", func(pts []geom.Point) []int { return simplify.TopAngle(pts, 2) }},
	}
	for _, v := range variants {
		var items []segclust.Item
		var devSum, ratioSum float64
		for _, tr := range trs {
			tr = tr.Dedup()
			if len(tr.Points) < 2 {
				continue
			}
			cps := v.cps(tr.Points)
			devSum += simplify.MaxDeviation(tr.Points, cps)
			ratioSum += simplify.CompressionRatio(tr.Points, cps)
			for i := 1; i < len(cps); i++ {
				seg := geom.Segment{Start: tr.Points[cps[i-1]], End: tr.Points[cps[i]]}
				if seg.IsDegenerate() || seg.Length() < partitionMinLength {
					continue
				}
				items = append(items, segclust.Item{Seg: seg, TrajID: tr.ID, Weight: 1})
			}
		}
		out, err := runTraclus(items, figureParams.hurricaneEps, figureParams.hurricaneMinLns)
		if err != nil {
			r.addf("%s: error: %v", v.name, err)
			continue
		}
		n := float64(len(trs))
		r.addf("%-16s segments=%-5d clusters=%-3d noise=%-4d avgMaxDev=%.1f avgCompression=%.1fx",
			v.name, len(items), out.NumClusters(), out.Result.NoiseCount(), devSum/n, ratioSum/n)
		r.Values["clusters_"+v.name] = float64(out.NumClusters())
		r.Values["dev_"+v.name] = devSum / n
		r.Values["segments_"+v.name] = float64(len(items))
	}
	return r
}

// directionalScene plants per trajectories on each of three flows:
// eastbound at y=250, westbound at y=258 (the same road), northbound at
// x=500 crossing it.
func directionalScene(per, pts int) []geom.Trajectory {
	rng := rand.New(rand.NewSource(31))
	var trs []geom.Trajectory
	id := 0
	addFlow := func(a, b geom.Point) {
		for t := 0; t < per; t++ {
			traj := geom.Trajectory{ID: id, Weight: 1}
			for s := 0; s < pts; s++ {
				p := a.Lerp(b, float64(s)/float64(pts-1))
				traj.Points = append(traj.Points,
					geom.Pt(p.X+rng.NormFloat64()*3, p.Y+rng.NormFloat64()*3))
			}
			trs = append(trs, traj)
			id++
		}
	}
	addFlow(geom.Pt(100, 250), geom.Pt(900, 250)) // eastbound
	addFlow(geom.Pt(900, 258), geom.Pt(100, 258)) // westbound, same road
	addFlow(geom.Pt(500, 60), geom.Pt(500, 540))  // northbound crossing
	return trs
}

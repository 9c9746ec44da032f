package experiments

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/render"
)

// figureParams are the ε/MinLns settings used per data set. The paper's
// optima (hurricane ε=30/MinLns=6, elk ε=27/MinLns=9, deer ε=29/MinLns=8)
// carry over because the synthetic worlds use the same coordinate scale.
var figureParams = struct {
	hurricaneEps, hurricaneMinLns float64
	elkEps, elkMinLns             float64
	deerEps, deerMinLns           float64
}{30, 6, 27, 9, 29, 8}

// Fig16 regenerates Figure 16: entropy vs ε for the hurricane data. The
// paper's curve has a single interior minimum (at ε=31 on Best Track);
// the report records our minimiser and avg|Nε| there.
func Fig16(sz Size) *Report {
	r := newReport("fig16", "Entropy for the hurricane data")
	items := partitionItems(HurricaneData(sz))
	epsValues := epsRange(4, 60, 2)
	curve, err := entropyCurve(items, epsValues)
	if err != nil {
		r.addf("error: %v", err)
		return r
	}
	best := curve[0]
	xs := make([]float64, len(curve))
	ys := make([]float64, len(curve))
	for i, p := range curve {
		xs[i], ys[i] = p.Eps, p.Entropy
		r.addf("eps=%.0f entropy=%.4f avgN=%.2f", p.Eps, p.Entropy, p.AvgNeighbors)
		if p.Entropy < best.Entropy {
			best = p
		}
	}
	r.addf("optimum: eps=%.0f entropy=%.4f avg|Neps|=%.2f", best.Eps, best.Entropy, best.AvgNeighbors)
	r.Values["optEps"] = best.Eps
	r.Values["avgNeighbors"] = best.AvgNeighbors
	r.SVGs["fig16_entropy_hurricane.svg"] = render.LineChart(
		"Entropy for the hurricane data", "Eps", "Entropy",
		[]render.Series{{Name: "entropy", X: xs, Y: ys}})
	return r
}

// Fig17 regenerates Figure 17: QMeasure vs ε for MinLns ∈ {5,6,7} on the
// hurricane data. The paper reads this as QMeasure being "nearly minimal
// when the optimal value of ε is used" within a MinLns curve.
func Fig17(sz Size) *Report {
	r := newReport("fig17", "Quality measure for the hurricane data")
	items := partitionItems(HurricaneData(sz))
	epsValues := epsRange(26, 34, 2)
	var series []render.Series
	minQ := map[float64]float64{}
	minQEps := map[float64]float64{}
	for _, minLns := range []float64{5, 6, 7} {
		xs := make([]float64, 0, len(epsValues))
		ys := make([]float64, 0, len(epsValues))
		for _, eps := range epsValues {
			out, err := runTraclus(items, eps, minLns)
			if err != nil {
				r.addf("error: %v", err)
				continue
			}
			q := qmeasure(items, out)
			xs = append(xs, eps)
			ys = append(ys, q)
			r.addf("MinLns=%.0f eps=%.0f QMeasure=%.0f clusters=%d", minLns, eps, q, out.NumClusters())
			if cur, ok := minQ[minLns]; !ok || q < cur {
				minQ[minLns] = q
				minQEps[minLns] = eps
			}
		}
		series = append(series, render.Series{Name: fmt.Sprintf("MinLns=%.0f", minLns), X: xs, Y: ys})
	}
	for _, m := range []float64{5, 6, 7} {
		r.addf("minimum for MinLns=%.0f at eps=%.0f (QMeasure=%.0f)", m, minQEps[m], minQ[m])
		r.Values[fmt.Sprintf("bestEpsMinLns%.0f", m)] = minQEps[m]
	}
	r.SVGs["fig17_qmeasure_hurricane.svg"] = render.LineChart(
		"Quality measure for the hurricane data", "Eps", "QMeasure", series)
	return r
}

// clusterFigure is the shared shape of Figures 18, 21, 22: run TRACLUS at
// the data set's parameters, report the cluster count, and render the map.
func clusterFigure(id, title string, trs []geom.Trajectory, eps, minLns float64, svgName string) *Report {
	r := newReport(id, title)
	items := partitionItems(trs)
	out, err := runTraclus(items, eps, minLns)
	if err != nil {
		r.addf("error: %v", err)
		return r
	}
	reps := make([][]geom.Point, 0, len(out.Clusters))
	for i, c := range out.Clusters {
		reps = append(reps, c.Representative)
		r.addf("cluster %d: %d segments, %d trajectories, representative of %d points",
			i, len(c.Segments), len(c.Trajectories), len(c.Representative))
	}
	r.addf("clusters=%d segments=%d noise=%d", out.NumClusters(), len(items), out.Result.NoiseCount())
	r.Values["clusters"] = float64(out.NumClusters())
	r.Values["noise"] = float64(out.Result.NoiseCount())
	r.Values["segments"] = float64(len(items))
	r.SVGs[svgName] = render.ClusterSVG(trs, reps)
	r.Lines = append(r.Lines, "", render.ClusterMap(110, 34, trs, reps))
	return r
}

// Fig18 regenerates Figure 18: the hurricane clustering at the optimal
// parameters. The paper finds seven clusters: a lower east-to-west band,
// an upper west-to-east band, and south-to-north recurve clusters.
func Fig18(sz Size) *Report {
	return clusterFigure("fig18", "Clustering result for the hurricane data",
		HurricaneData(sz), figureParams.hurricaneEps, figureParams.hurricaneMinLns,
		"fig18_clusters_hurricane.svg")
}

// Fig19 regenerates Figure 19: entropy vs ε for the Elk1993 data (paper
// minimum at ε=25 with avg|Nε|=7.63).
func Fig19(sz Size) *Report {
	r := newReport("fig19", "Entropy for the Elk1993 data")
	items := partitionItems(ElkData(sz))
	epsValues := epsRange(4, 60, 2)
	curve, err := entropyCurve(items, epsValues)
	if err != nil {
		r.addf("error: %v", err)
		return r
	}
	best := curve[0]
	xs := make([]float64, len(curve))
	ys := make([]float64, len(curve))
	for i, p := range curve {
		xs[i], ys[i] = p.Eps, p.Entropy
		r.addf("eps=%.0f entropy=%.4f avgN=%.2f", p.Eps, p.Entropy, p.AvgNeighbors)
		if p.Entropy < best.Entropy {
			best = p
		}
	}
	r.addf("optimum: eps=%.0f entropy=%.4f avg|Neps|=%.2f", best.Eps, best.Entropy, best.AvgNeighbors)
	r.Values["optEps"] = best.Eps
	r.Values["avgNeighbors"] = best.AvgNeighbors
	r.SVGs["fig19_entropy_elk.svg"] = render.LineChart(
		"Entropy for the Elk1993 data", "Eps", "Entropy",
		[]render.Series{{Name: "entropy", X: xs, Y: ys}})
	return r
}

// Fig20 regenerates Figure 20: QMeasure vs ε for MinLns ∈ {8,9,10} on the
// elk data.
func Fig20(sz Size) *Report {
	r := newReport("fig20", "Quality measure for the Elk1993 data")
	items := partitionItems(ElkData(sz))
	epsValues := epsRange(25, 31, 2)
	var series []render.Series
	for _, minLns := range []float64{8, 9, 10} {
		xs := make([]float64, 0, len(epsValues))
		ys := make([]float64, 0, len(epsValues))
		for _, eps := range epsValues {
			out, err := runTraclus(items, eps, minLns)
			if err != nil {
				r.addf("error: %v", err)
				continue
			}
			q := qmeasure(items, out)
			xs = append(xs, eps)
			ys = append(ys, q)
			r.addf("MinLns=%.0f eps=%.0f QMeasure=%.0f clusters=%d", minLns, eps, q, out.NumClusters())
		}
		series = append(series, render.Series{Name: fmt.Sprintf("MinLns=%.0f", minLns), X: xs, Y: ys})
	}
	r.SVGs["fig20_qmeasure_elk.svg"] = render.LineChart(
		"Quality measure for the Elk1993 data", "Eps", "QMeasure", series)
	return r
}

// Fig21 regenerates Figure 21: the Elk1993 clustering (paper: thirteen
// clusters in the dense corridors).
func Fig21(sz Size) *Report {
	return clusterFigure("fig21", "Clustering result for the Elk1993 data",
		ElkData(sz), figureParams.elkEps, figureParams.elkMinLns,
		"fig21_clusters_elk.svg")
}

// Fig22 regenerates Figure 22: the Deer1995 clustering (paper: two
// clusters in the two most dense regions).
func Fig22(sz Size) *Report {
	return clusterFigure("fig22", "Clustering result for the Deer1995 data",
		DeerData(sz), figureParams.deerEps, figureParams.deerMinLns,
		"fig22_clusters_deer.svg")
}

// Sec54 regenerates the Section 5.4 parameter-effects observation on the
// hurricane data: smaller ε (or larger MinLns) → more, smaller clusters;
// larger ε (or smaller MinLns) → fewer, larger clusters. The paper's
// datapoints: ε=25 → 9 clusters averaging 38 segments; ε=35 → 3 clusters
// averaging 174 segments, against 7 clusters at ε=30.
func Sec54(sz Size) *Report {
	r := newReport("sec54", "Effects of parameter values (hurricane data)")
	items := partitionItems(HurricaneData(sz))
	for _, eps := range []float64{15, 30, 45} {
		out, err := runTraclus(items, eps, figureParams.hurricaneMinLns)
		if err != nil {
			r.addf("error: %v", err)
			continue
		}
		r.addf("eps=%.0f MinLns=%.0f -> clusters=%d avgSegsPerCluster=%.1f",
			eps, figureParams.hurricaneMinLns, out.NumClusters(), out.AvgSegmentsPerCluster())
		r.Values[fmt.Sprintf("clustersEps%.0f", eps)] = float64(out.NumClusters())
		r.Values[fmt.Sprintf("avgSegsEps%.0f", eps)] = out.AvgSegmentsPerCluster()
	}
	return r
}

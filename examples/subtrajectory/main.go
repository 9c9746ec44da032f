// Subtrajectory: the paper's Figure-1 argument, executable. Five
// trajectories share a common sub-trajectory and then head in five
// different directions. Clustering them as wholes — here with a regression
// mixture model (Gaffney & Smyth) and with k-medoids over the DTW, LCSS,
// and EDR whole-trajectory distances — cannot expose the shared corridor;
// TRACLUS's partition-and-group framework finds it directly.
//
// Run with: go run ./examples/subtrajectory
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/geom"
	"repro/internal/regmix"
	"repro/internal/synth"
	"repro/internal/tsdist"

	traclus "repro"
)

func main() {
	trs := synth.Figure1(2, 7)
	corridor := geom.Segment{Start: geom.Pt(200, 300), End: geom.Pt(500, 300)}
	fmt.Println("five trajectories share the corridor y=300, x in [200,500]")

	// TRACLUS.
	p := traclus.New(traclus.WithConfig(traclus.Config{Eps: 30, MinLns: 3, CostAdvantage: 3}))
	res, err := p.Run(context.Background(), trs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTRACLUS: %d cluster(s)\n", len(res.Clusters))
	for i, c := range res.Clusters {
		fmt.Printf("  cluster %d: representative within %.1f units of the corridor\n",
			i, meanDist(c.Representative, corridor))
	}

	// Whole-trajectory baseline 1: regression mixture (EM).
	fit, err := regmix.Fit(trs, regmix.Config{K: 3, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nregression mixture (K=3, EM %d iters): assignments %v\n", fit.Iters, fit.Assign)
	for k, comp := range fit.Components {
		fmt.Printf("  component %d mean curve: %.1f units from the corridor\n",
			k, meanDist(comp.MeanCurve(40), corridor))
	}

	// Whole-trajectory baseline 2: k-medoids over classic trajectory
	// distances. Every trajectory is "far" from every other because the
	// divergent tails dominate — the corridor never surfaces.
	for _, d := range []struct {
		name string
		fn   tsdist.DistFunc
	}{
		{"DTW", func(a, b []geom.Point) float64 { return tsdist.DTW(a, b, -1) }},
		{"LCSS", func(a, b []geom.Point) float64 { return tsdist.LCSSDist(a, b, 25, -1) }},
		{"EDR", func(a, b []geom.Point) float64 { return tsdist.EDRDist(a, b, 25) }},
	} {
		dm := tsdist.Matrix(trs, d.fn)
		var min, max float64 = math.Inf(1), 0
		for i := range dm {
			for j := range dm {
				if i == j {
					continue
				}
				min = math.Min(min, dm[i][j])
				max = math.Max(max, dm[i][j])
			}
		}
		_, assign, err := tsdist.KMedoids(dm, 2, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: pairwise distance range [%.2f, %.2f], k-medoids(2) assignment %v\n",
			d.name, min, max, assign)
	}
	fmt.Println("\nonly the partition-and-group framework recovers the common sub-trajectory")
}

func meanDist(pts []geom.Point, s geom.Segment) float64 {
	if len(pts) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, p := range pts {
		sum += s.DistToPoint(p)
	}
	return sum / float64(len(pts))
}

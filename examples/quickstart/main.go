// Quickstart: cluster a handful of hand-written trajectories and print the
// common sub-trajectory TRACLUS discovers.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	traclus "repro"
)

func main() {
	// Seven trajectories: five share a west-to-east corridor near y=50
	// before fanning out; two wander elsewhere. Whole-trajectory
	// clustering sees seven dissimilar curves — TRACLUS sees the corridor.
	var trs []traclus.Trajectory
	for i := 0; i < 5; i++ {
		dy := float64(i-2) * 4
		tail := float64(i-2) * 40
		trs = append(trs, traclus.NewTrajectory(i, []traclus.Point{
			traclus.Pt(0, 50+dy*3),
			traclus.Pt(40, 50+dy),
			traclus.Pt(80, 50+dy),
			traclus.Pt(120, 50+dy),
			traclus.Pt(160, 50+dy),
			traclus.Pt(200, 50+dy+tail/2),
			traclus.Pt(240, 50+dy+tail),
		}))
	}
	trs = append(trs,
		traclus.NewTrajectory(5, []traclus.Point{
			traclus.Pt(0, 150), traclus.Pt(60, 180), traclus.Pt(120, 150), traclus.Pt(180, 185),
		}),
		traclus.NewTrajectory(6, []traclus.Point{
			traclus.Pt(240, 0), traclus.Pt(180, 10), traclus.Pt(120, 0), traclus.Pt(60, 12),
		}),
	)

	p := traclus.New(traclus.WithConfig(traclus.Config{
		Eps:    25, // neighborhood radius in coordinate units
		MinLns: 4,  // a cluster needs at least 4 nearby segments
	}))
	res, err := p.Run(context.Background(), trs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("input: %d trajectories -> %d segments\n", len(trs), res.TotalSegments)
	fmt.Printf("found %d cluster(s), %d noise segments\n", len(res.Clusters), res.NoiseSegments)
	for i, c := range res.Clusters {
		fmt.Printf("cluster %d: %d segments from trajectories %v\n", i, len(c.Segments), c.Trajectories)
		fmt.Println("  representative trajectory (the common sub-trajectory):")
		for _, p := range c.Representative {
			fmt.Printf("    (%.1f, %.1f)\n", p.X, p.Y)
		}
	}
}

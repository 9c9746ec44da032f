// Spatiotemporal: the paper's Section 7.1 (item 5) extension in action —
// "We will extend our algorithm to take account of temporal information
// during clustering." Two groups of commuters traverse the same road, one
// in the morning and one in the evening. Plain TRACLUS sees one corridor;
// the spatiotemporal geometry separates the morning and evening flows and
// reports each cluster's time window.
//
// Time is one more column of the input: each trajectory carries its
// per-point Times, and a Config whose Geometry is SpatiotemporalGeometry
// runs them through the same Pipeline.Run — the same indexed, parallel
// engine as planar runs.
//
// Run with: go run ./examples/spatiotemporal
package main

import (
	"context"
	"fmt"
	"log"

	traclus "repro"
	"repro/internal/synth"
)

func main() {
	// One road, two temporally disjoint waves 10 h apart: every trajectory
	// is a traclus.Trajectory{Points, Times}, Times in seconds.
	trs := synth.RushHours(10, 20, 3, 5, 60, 45, 10*3600)

	cfg := traclus.Config{Eps: 25, MinLns: 5}
	ctx := context.Background()

	// wT = 0: the temporal component vanishes and the run reduces exactly
	// to planar TRACLUS — one cluster, the road itself.
	cfg.Geometry = traclus.SpatiotemporalGeometry(0)
	plain, err := traclus.New(traclus.WithConfig(cfg)).Run(ctx, trs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("temporal weight 0 (plain TRACLUS): %d cluster(s) — the road\n", len(plain.Clusters))

	// wT > 0 adds wT·gap(interval_i, interval_j) to every segment pair;
	// the 10 h gap between waves dwarfs eps, so the flows separate.
	cfg.Geometry = traclus.SpatiotemporalGeometry(0.01)
	timed, err := traclus.New(traclus.WithConfig(cfg)).Run(ctx, trs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("temporal weight 0.01:              %d cluster(s) — the flows\n", len(timed.Clusters))
	for i, c := range timed.Clusters {
		w := timed.ClusterWindows()[i]
		fmt.Printf("  cluster %d: %d trajectories, window %s–%s\n",
			i, len(c.Trajectories), clock(w.Start), clock(w.End))
	}
}

func clock(sec float64) string {
	s := int(sec)
	return fmt.Sprintf("%02d:%02d", s/3600, s%3600/60)
}

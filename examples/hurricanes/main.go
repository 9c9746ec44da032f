// Hurricanes: the paper's first motivating application — discovering the
// common behaviours of Atlantic hurricane tracks (landfall forecasting,
// Section 1). This example generates the synthetic Best-Track stand-in,
// round-trips it through the on-disk format, estimates ε and MinLns with
// the Section 4.4 heuristic, clusters, and writes an SVG of the result.
//
// Run with: go run ./examples/hurricanes
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/render"
	"repro/internal/synth"
	"repro/internal/trackio"

	traclus "repro"
)

func main() {
	// Generate the Best-Track stand-in and parse it back, exactly as a
	// user would load the real file.
	cfg := synth.DefaultHurricaneConfig()
	cfg.NumTracks = 200 // keep the example quick; use 570 for paper scale
	var buf bytes.Buffer
	if err := trackio.WriteBestTrack(&buf, synth.Hurricanes(cfg)); err != nil {
		log.Fatal(err)
	}
	trs, err := trackio.ReadBestTrack(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d storm tracks\n", len(trs))

	runCfg := traclus.Config{
		CostAdvantage:    15, // suppress partitioning at telemetry jitter
		MinSegmentLength: 40,
	}

	// Parameter heuristic (Section 4.4): entropy-minimising ε, then
	// MinLns from avg|Nε|.
	ctx := context.Background()
	est, err := traclus.New(traclus.WithConfig(runCfg)).Estimate(ctx, trs, 4, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heuristic suggests eps=%.1f, MinLns in %d..%d (avg|Neps|=%.2f)\n",
		est.Eps, est.MinLnsLo, est.MinLnsHi, est.AvgNeighbors)

	// Cluster at the paper's visually chosen optimum for this world.
	runCfg.Eps, runCfg.MinLns = 30, 6
	res, err := traclus.New(traclus.WithConfig(runCfg)).Run(ctx, trs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clusters=%d (segments=%d, noise=%d)\n",
		len(res.Clusters), res.TotalSegments, res.NoiseSegments)
	var reps [][]traclus.Point
	for i, c := range res.Clusters {
		reps = append(reps, c.Representative)
		dir := "mixed"
		if n := len(c.Representative); n >= 2 {
			dx := c.Representative[n-1].X - c.Representative[0].X
			dy := c.Representative[n-1].Y - c.Representative[0].Y
			switch {
			case dy > 100:
				dir = "south-to-north (recurve corridor)"
			case dx < -100:
				dir = "east-to-west (trade-wind band)"
			case dx > 100:
				dir = "west-to-east (extratropical band)"
			}
		}
		fmt.Printf("cluster %d: %d tracks, %s\n", i, len(c.Trajectories), dir)
	}

	if err := os.WriteFile("hurricane_clusters.svg",
		[]byte(render.ClusterSVG(trs, reps)), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote hurricane_clusters.svg")
}

// Animals: the paper's second motivating application — the effects of
// roads and traffic on animal movements (Section 1). This example builds
// the Starkey-like telemetry stand-in for elk and deer, clusters each with
// TRACLUS, and reports the shared movement corridors together with how many
// distinct animals use each one (the trajectory cardinality of
// Definition 10 — the quantity a zoologist would correlate with road
// traffic levels).
//
// Run with: go run ./examples/animals
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/internal/synth"
	"repro/internal/trackio"

	traclus "repro"
)

func main() {
	for _, species := range []struct {
		name string
		cfg  synth.AnimalConfig
		eps  float64
		min  float64
	}{
		{"elk", smaller(synth.ElkConfig()), 27, 9},
		{"deer", smaller(synth.DeerConfig()), 29, 8},
	} {
		// Round-trip through the telemetry TSV format.
		var buf bytes.Buffer
		if err := trackio.WriteTelemetry(&buf, synth.AnimalMovements(species.cfg)); err != nil {
			log.Fatal(err)
		}
		trs, err := trackio.ReadTelemetry(&buf, species.name)
		if err != nil {
			log.Fatal(err)
		}

		p := traclus.New(traclus.WithConfig(traclus.Config{
			Eps:              species.eps,
			MinLns:           species.min,
			CostAdvantage:    15,
			MinSegmentLength: 40,
		}))
		res, err := p.Run(context.Background(), trs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d animals, %d corridors discovered\n",
			species.name, len(trs), len(res.Clusters))
		for i, c := range res.Clusters {
			var length float64
			for j := 1; j < len(c.Representative); j++ {
				length += c.Representative[j-1].Dist(c.Representative[j])
			}
			fmt.Printf("  corridor %d: used by %d of %d animals, ~%.0f units long\n",
				i, len(c.Trajectories), len(trs), length)
		}
	}
}

// smaller trims the generator so the example runs in a couple of seconds;
// remove to reproduce the full-scale Figure 21/22 runs.
func smaller(cfg synth.AnimalConfig) synth.AnimalConfig {
	cfg.PointsPer = 400
	return cfg
}

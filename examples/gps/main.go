// GPS: clustering real-world latitude/longitude tracks with the geodesic
// geometry. Raw degrees are not a plane — one degree of longitude is
// cos(latitude) shorter than a degree of latitude — so the geodesic
// geometry projects every trajectory into a local equirectangular frame in
// METERS before partitioning, clusters there, and carries the frame in the
// model so queries and snapshots project identically. Eps is therefore a
// distance in meters, the natural unit for GPS work.
//
// Run with: go run ./examples/gps
package main

import (
	"context"
	"fmt"
	"log"

	traclus "repro"
	"repro/internal/synth"
)

func main() {
	// Commuter tracks along 3 corridors around a city center,
	// X=longitude, Y=latitude in degrees, ≈5.5 km long, ≈45 m jitter.
	trs := synth.GPSTracks(3, 8, 25, 7)

	res, err := traclus.New(traclus.WithConfig(traclus.Config{
		Eps:              150, // meters, thanks to the working frame
		MinLns:           5,
		MinSegmentLength: 100,
		Geometry:         traclus.GeodesicGeometry(),
	})).Run(context.Background(), trs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d GPS tracks -> %d corridor cluster(s), %d noise segments\n",
		len(trs), len(res.Clusters), res.NoiseSegments)

	// Representatives come back in the working frame; the model's frame
	// converts them to lat/lon for display (or a map).
	frame := res.Geometry().Frame
	for i, c := range res.Clusters {
		if len(c.Representative) == 0 {
			continue
		}
		a := frame.FromWorking(c.Representative[0])
		b := frame.FromWorking(c.Representative[len(c.Representative)-1])
		fmt.Printf("  cluster %d: %d trajectories, representative %.4f,%.4f -> %.4f,%.4f\n",
			i, len(c.Trajectories), a.Y, a.X, b.Y, b.X)
	}
}

package experiments

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mdl"
)

func TestEndpointLHNotShiftInvariant(t *testing.T) {
	// The Appendix C counter-example: the rejected endpoint-based L(H)
	// cost grows under shifting.
	pts := []geom.Point{geom.Pt(100, 100), geom.Pt(200, 200), geom.Pt(300, 100)}
	shifted := []geom.Point{geom.Pt(10100, 10100), geom.Pt(10200, 10200), geom.Pt(10300, 10100)}
	if MDLParEndpointLH(pts, 0, 2) >= MDLParEndpointLH(shifted, 0, 2) {
		t.Error("endpoint L(H) should grow with coordinates")
	}
	if MDLNoParEndpointLH(pts, 0, 2) >= MDLNoParEndpointLH(shifted, 0, 2) {
		t.Error("endpoint no-par cost should grow with coordinates")
	}
}

func TestApproximatePartitionEndpointLHStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomWalk(rng, 40)
	got := ApproximatePartitionEndpointLH(pts, mdl.Config{})
	if got[0] != 0 || got[len(got)-1] != len(pts)-1 {
		t.Errorf("endpoints missing: %v", got)
	}
	if got := ApproximatePartitionEndpointLH(nil, mdl.Config{}); got != nil {
		t.Errorf("nil input = %v", got)
	}
	if got := ApproximatePartitionEndpointLH(pts[:2], mdl.Config{}); len(got) != 2 {
		t.Errorf("two points = %v", got)
	}
}

func randomWalk(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	x, y := 0.0, 0.0
	heading := rng.Float64() * 2 * math.Pi
	for i := range pts {
		if rng.Float64() < 0.25 {
			heading += (rng.Float64() - 0.5) * 2
		}
		x += 10 * math.Cos(heading)
		y += 10 * math.Sin(heading)
		pts[i] = geom.Pt(x, y)
	}
	return pts
}

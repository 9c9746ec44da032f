package experiments

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

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

// literalEndpointLH is Figure 8 verbatim under the endpoint-based costs: the
// loop ApproximatePartitionEndpointLH ran before its test started at length
// 2, for n > 2 points. At length 1 it tests a segment against itself, which
// at CostAdvantage ≥ 0 never partitions.
func literalEndpointLH(pts []geom.Point, costAdvantage float64) []int {
	n := len(pts)
	cps := []int{0}
	startIndex, length := 0, 1
	for startIndex+length < n {
		currIndex := startIndex + length
		costPar := MDLParEndpointLH(pts, startIndex, currIndex)
		costNoPar := MDLNoParEndpointLH(pts, startIndex, currIndex)
		if costPar > costNoPar+costAdvantage {
			cps = append(cps, currIndex-1)
			startIndex = currIndex - 1
			length = 1
		} else {
			length++
		}
	}
	if cps[len(cps)-1] != n-1 {
		cps = append(cps, n-1)
	}
	return cps
}

// TestApproximatePartitionEndpointLHMatchesLiteral: starting the test at
// length 2 changes no partition Figure 8's literal loop finds at
// CostAdvantage 0, 1 and 15, on random walks like the structure test's.
func TestApproximatePartitionEndpointLHMatchesLiteral(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		pts := randomWalk(rand.New(rand.NewSource(seed)), 40)
		for _, ca := range []float64{0, 1, 15} {
			want := literalEndpointLH(pts, ca)
			if got := ApproximatePartitionEndpointLH(pts, mdl.Config{CostAdvantage: ca}); !slices.Equal(got, want) {
				t.Errorf("seed %d, CostAdvantage %g: %v, literal loop %v", seed, ca, got, want)
			}
		}
	}
}

// TestApproximatePartitionEndpointLHNegativeAdvantage: at CostAdvantage −1
// every length-1 step costs more with a partition than without, and a loop
// that tests it partitions at its start point forever, appending without
// bound. The call must return well within the deadline, with strictly
// increasing characteristic points; past the deadline the test panics,
// which also stops the runaway loop's allocations.
func TestApproximatePartitionEndpointLHNegativeAdvantage(t *testing.T) {
	pts := randomWalk(rand.New(rand.NewSource(5)), 40)
	done := make(chan []int, 1)
	go func() { done <- ApproximatePartitionEndpointLH(pts, mdl.Config{CostAdvantage: -1}) }()
	select {
	case got := <-done:
		if got[0] != 0 || got[len(got)-1] != len(pts)-1 {
			t.Errorf("endpoints missing: %v", got)
		}
		for k := 1; k < len(got); k++ {
			if got[k] <= got[k-1] {
				t.Fatalf("characteristic points not strictly increasing: %v", got)
			}
		}
	case <-time.After(time.Second):
		panic("ApproximatePartitionEndpointLH at CostAdvantage -1 did not return within 1s: a length-1 step repeats forever")
	}
}

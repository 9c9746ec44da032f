package experiments

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/lsdist"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randSeg(rng *rand.Rand) geom.Segment {
	return geom.Seg(rng.Float64()*1000-500, rng.Float64()*1000-500,
		rng.Float64()*1000-500, rng.Float64()*1000-500)
}

func TestEndpointSumAppendixATie(t *testing.T) {
	l1 := geom.Seg(0, 0, 200, 0)
	l2 := geom.Seg(100, 100, 300, 100)
	l3 := geom.Seg(300, 100, 100, 100)
	if EndpointSum(l1, l2) != EndpointSum(l1, l3) {
		t.Error("Appendix A tie not reproduced")
	}
	if !approx(EndpointSum(l1, l2), 200*math.Sqrt2, 1e-9) {
		t.Errorf("EndpointSum = %v, want 200√2", EndpointSum(l1, l2))
	}
}

func TestEndpointSumSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := randSeg(rng), randSeg(rng)
		if EndpointSum(a, b) != EndpointSum(b, a) {
			t.Fatal("EndpointSum asymmetric")
		}
	}
}

func TestHausdorffKnownValues(t *testing.T) {
	cases := []struct {
		a, b geom.Segment
		want float64
	}{
		// Parallel offset: every point is 3 away.
		{geom.Seg(0, 0, 10, 0), geom.Seg(0, 3, 10, 3), 3},
		// Identical: 0.
		{geom.Seg(0, 0, 10, 0), geom.Seg(0, 0, 10, 0), 0},
		// Reversed copy: still 0 (sets of points coincide).
		{geom.Seg(0, 0, 10, 0), geom.Seg(10, 0, 0, 0), 0},
		// Contained: the long segment's far endpoint dominates.
		{geom.Seg(0, 0, 10, 0), geom.Seg(0, 0, 4, 0), 6},
		// Perpendicular at midpoint: T shape.
		{geom.Seg(0, 0, 10, 0), geom.Seg(5, 0, 5, 8), 8},
	}
	for _, c := range cases {
		if got := Hausdorff(c.a, c.b); !approx(got, c.want, 1e-9) {
			t.Errorf("Hausdorff(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestHausdorffIsMetricOnSamples(t *testing.T) {
	// Unlike the TRACLUS distance, segment Hausdorff satisfies the
	// triangle inequality.
	rng := rand.New(rand.NewSource(2))
	segs := make([]geom.Segment, 12)
	for i := range segs {
		segs[i] = randSeg(rng)
	}
	for i := range segs {
		for j := range segs {
			for k := range segs {
				if Hausdorff(segs[i], segs[k]) > Hausdorff(segs[i], segs[j])+Hausdorff(segs[j], segs[k])+1e-9 {
					t.Fatalf("Hausdorff triangle violated at %d %d %d", i, j, k)
				}
			}
		}
	}
}

func TestHausdorffAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		a, b := randSeg(rng), randSeg(rng)
		got := Hausdorff(a, b)
		// Sampled directed Hausdorff can only under-estimate.
		var sampled float64
		for i := 0; i <= 40; i++ {
			p := a.Start.Lerp(a.End, float64(i)/40)
			sampled = math.Max(sampled, b.DistToPoint(p))
			q := b.Start.Lerp(b.End, float64(i)/40)
			sampled = math.Max(sampled, a.DistToPoint(q))
		}
		if sampled > got+1e-9 {
			t.Fatalf("sampled %v exceeds exact %v", sampled, got)
		}
		if got > sampled+30 { // resolution slack
			t.Fatalf("exact %v far above sampled %v", got, sampled)
		}
	}
}

func TestHausdorffIgnoresDirection(t *testing.T) {
	// Hausdorff cannot tell a segment from its reverse — exactly the
	// weakness the angle distance fixes.
	a := geom.Seg(0, 0, 100, 0)
	b := geom.Seg(0, 5, 100, 5)
	rev := b.Reverse()
	if Hausdorff(a, b) != Hausdorff(a, rev) {
		t.Error("Hausdorff should ignore direction")
	}
	if lsdist.Dist(a, b) >= lsdist.Dist(a, rev) {
		t.Error("TRACLUS distance should penalise the reversed segment")
	}
}

func TestMidpointDist(t *testing.T) {
	a := geom.Seg(0, 0, 10, 0)
	b := geom.Seg(0, 6, 10, 6)
	if got := MidpointDist(a, b); got != 6 {
		t.Errorf("MidpointDist = %v", got)
	}
	// Blind to extent: a long and short segment with the same midpoint.
	c := geom.Seg(-100, 0, 120, 0)
	d := geom.Seg(9, 0, 11, 0)
	if got := MidpointDist(c, d); got != 0 {
		t.Errorf("MidpointDist same-midpoint = %v", got)
	}
}

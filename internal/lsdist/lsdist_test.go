package lsdist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// randSeg generates bounded segments for property tests.
func randSeg(rng *rand.Rand) geom.Segment {
	return geom.Seg(rng.Float64()*1000-500, rng.Float64()*1000-500,
		rng.Float64()*1000-500, rng.Float64()*1000-500)
}

func TestPerpendicularParallelSegments(t *testing.T) {
	// Two parallel horizontal segments 3 apart: l⊥1 = l⊥2 = 3, Lehmer = 3.
	li := geom.Seg(0, 0, 10, 0)
	lj := geom.Seg(2, 3, 8, 3)
	if got := PerpendicularOrdered(li, lj); !approx(got, 3, 1e-12) {
		t.Errorf("d_perp = %v, want 3", got)
	}
}

func TestPerpendicularLehmerMean(t *testing.T) {
	// Slanted short segment: endpoint offsets 1 and 3 → Lehmer (1+9)/(1+3) = 2.5.
	li := geom.Seg(0, 0, 10, 0)
	lj := geom.Seg(4, 1, 6, 3)
	if got := PerpendicularOrdered(li, lj); !approx(got, 2.5, 1e-12) {
		t.Errorf("d_perp = %v, want 2.5", got)
	}
}

func TestPerpendicularCoincident(t *testing.T) {
	li := geom.Seg(0, 0, 10, 0)
	lj := geom.Seg(2, 0, 8, 0)
	if got := PerpendicularOrdered(li, lj); got != 0 {
		t.Errorf("d_perp of collinear = %v", got)
	}
}

func TestParallelDistanceDefinition2(t *testing.T) {
	li := geom.Seg(0, 0, 10, 0)
	// Projections at x=12 and x=15: l∥1 = min(12, 2) = 2, l∥2 = min(15, 5) = 5,
	// d∥ = min(2, 5) = 2.
	lj := geom.Seg(12, 1, 15, 2)
	if got := ParallelOrdered(li, lj); !approx(got, 2, 1e-12) {
		t.Errorf("d_par = %v, want 2", got)
	}
	// Contained segment: projections at 4 and 6 → min distances 4 and 4 → 4.
	lj2 := geom.Seg(4, 2, 6, 2)
	if got := ParallelOrdered(li, lj2); !approx(got, 4, 1e-12) {
		t.Errorf("d_par contained = %v, want 4", got)
	}
}

func TestParallelZeroForSharedEndpointProjection(t *testing.T) {
	// Adjacent segments of one trajectory: parallel distance is always 0
	// (Section 4.1.1).
	li := geom.Seg(0, 0, 10, 0)
	lj := geom.Seg(10, 0, 14, 3)
	if got := ParallelOrdered(li, lj); got != 0 {
		t.Errorf("adjacent d_par = %v, want 0", got)
	}
}

func TestAngleDistanceDefinition3(t *testing.T) {
	li := geom.Seg(0, 0, 10, 0)
	cases := []struct {
		lj         geom.Segment
		undirected bool
		want       float64
	}{
		{geom.Seg(0, 0, 4, 0), false, 0},                                    // 0°
		{geom.Seg(0, 0, 0, 4), false, 4},                                    // 90° → ‖Lj‖
		{geom.Seg(0, 0, -4, 0), false, 4},                                   // 180° → ‖Lj‖
		{geom.Seg(0, 0, -4, 0), true, 0},                                    // undirected 180° → sin
		{geom.Seg(0, 0, 3, 3), false, 3 * math.Sqrt2 * math.Sin(math.Pi/4)}, // 45°
	}
	for _, c := range cases {
		if got := AngleOrdered(li, c.lj, c.undirected); !approx(got, c.want, 1e-12) {
			t.Errorf("d_theta(%v, undirected=%v) = %v, want %v", c.lj, c.undirected, got, c.want)
		}
	}
}

func TestAppendixAExample(t *testing.T) {
	// The Appendix A configuration: the naive endpoint-sum ties L2 and L3
	// at 200√2, while the TRACLUS distance separates them via the angle
	// term (d⊥=100, d∥=100, dθ=0 vs dθ=‖L3‖=200).
	l1 := geom.Seg(0, 0, 200, 0)
	l2 := geom.Seg(100, 100, 300, 100)
	l3 := geom.Seg(300, 100, 100, 100)
	if got := Dist(l1, l2); !approx(got, 200, 1e-9) {
		t.Errorf("dist(L1,L2) = %v, want 200", got)
	}
	if got := Dist(l1, l3); !approx(got, 400, 1e-9) {
		t.Errorf("dist(L1,L3) = %v, want 400", got)
	}
}

func TestDistSelfZero(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax+ay+bx+by) || math.Abs(ax) > 1e6 || math.Abs(ay) > 1e6 ||
			math.Abs(bx) > 1e6 || math.Abs(by) > 1e6 {
			return true
		}
		s := geom.Segment{Start: geom.Pt(ax, ay), End: geom.Pt(bx, by)}
		return Dist(s, s) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistSymmetryLemma2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a, b := randSeg(rng), randSeg(rng)
		if d1, d2 := Dist(a, b), Dist(b, a); d1 != d2 {
			t.Fatalf("asymmetric: dist(%v,%v)=%v but reversed %v", a, b, d1, d2)
		}
	}
}

func TestDistSymmetryEqualLengths(t *testing.T) {
	// The tie-break path: equal-length segments must still be symmetric.
	a := geom.Seg(0, 0, 10, 0)
	b := geom.Seg(5, 5, 15, 5)
	if Dist(a, b) != Dist(b, a) {
		t.Error("equal-length tie-break asymmetric")
	}
}

func TestDistNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a, b := randSeg(rng), randSeg(rng)
		if d := Dist(a, b); d < 0 || math.IsNaN(d) {
			t.Fatalf("dist(%v,%v) = %v", a, b, d)
		}
	}
}

func TestDistRigidMotionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		a, b := randSeg(rng), randSeg(rng)
		want := Dist(a, b)
		phi := rng.Float64() * 2 * math.Pi
		d := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		ra := a.Rotate(phi).Translate(d)
		rb := b.Rotate(phi).Translate(d)
		if got := Dist(ra, rb); !approx(got, want, 1e-6*(1+want)) {
			t.Fatalf("not rigid-motion invariant: %v vs %v", got, want)
		}
	}
}

func TestTriangleInequalityViolationExists(t *testing.T) {
	// Section 4.2: "our distance function is not a metric". The angle term
	// produces the violation: two long perpendicular segments joined by a
	// tiny intermediate one.
	l1 := geom.Seg(0, 0, 100, 0)
	l2 := geom.Seg(0, 0, 0.1, 0.1) // tiny diagonal
	l3 := geom.Seg(0, 0, 0, 100)
	d13 := Dist(l1, l3)
	d12 := Dist(l1, l2)
	d23 := Dist(l2, l3)
	if d13 <= d12+d23 {
		t.Fatalf("expected triangle violation: d13=%v d12=%v d23=%v", d13, d12, d23)
	}
}

func TestWeightsValid(t *testing.T) {
	if !DefaultWeights().Valid() {
		t.Error("default weights invalid")
	}
	bad := []Weights{
		{-1, 1, 1},
		{1, math.NaN(), 1},
		{1, 1, math.Inf(1)},
		{0, 0, 0},
	}
	for _, w := range bad {
		if w.Valid() {
			t.Errorf("weights %v reported valid", w)
		}
	}
	if !(Weights{0, 0, 1}).Valid() {
		t.Error("single positive weight should be valid")
	}
}

func TestWeightedDist(t *testing.T) {
	a := geom.Seg(0, 0, 10, 0)
	b := geom.Seg(0, 3, 10, 3)
	// d⊥ = 3, d∥ = 0, dθ = 0.
	opt := Options{Weights: Weights{Perpendicular: 2, Parallel: 5, Angle: 7}}
	if got := DistOpt(a, b, opt); !approx(got, 6, 1e-12) {
		t.Errorf("weighted dist = %v, want 6", got)
	}
}

func TestNewFallsBackOnInvalidWeights(t *testing.T) {
	fn := New(Options{Weights: Weights{-1, -1, -1}})
	a := geom.Seg(0, 0, 10, 0)
	b := geom.Seg(0, 3, 10, 3)
	if got := fn(a, b); !approx(got, 3, 1e-12) {
		t.Errorf("fallback dist = %v, want 3 (default weights)", got)
	}
}

func TestLowerBoundFactor(t *testing.T) {
	if got := LowerBoundFactor(DefaultWeights()); got != 0.5 {
		t.Errorf("factor = %v, want 0.5", got)
	}
	if got := LowerBoundFactor(Weights{0, 1, 1}); got != 0 {
		t.Errorf("factor with zero w_perp = %v, want 0", got)
	}
	if got := LowerBoundFactor(Weights{4, 2, 0}); got != 1 {
		t.Errorf("factor = %v, want 1", got)
	}
}

// TestLowerBoundProperty is the soundness proof of DESIGN.md §3, checked
// empirically: dist(a,b) ≥ LowerBoundFactor(w)·mindist(a,b) for random
// segment pairs and random positive weights.
func TestLowerBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		a, b := randSeg(rng), randSeg(rng)
		w := Weights{
			Perpendicular: 0.1 + rng.Float64()*5,
			Parallel:      0.1 + rng.Float64()*5,
			Angle:         rng.Float64() * 5,
		}
		c := LowerBoundFactor(w)
		d := DistOpt(a, b, Options{Weights: w})
		md := a.MinDist(b)
		if d < c*md-1e-9 {
			t.Fatalf("bound violated: dist=%v < %v·mindist=%v for %v, %v (w=%v)",
				d, c, c*md, a, b, w)
		}
	}
}

// TestSearchRadius: the Euclidean candidate radius an index derives for ε
// is eps / LowerBoundFactor(w), and a zero factor leaves no finite radius.
func TestSearchRadius(t *testing.T) {
	c := LowerBoundFactor(DefaultWeights())
	if r := 30 / c; c == 0 || r != 60 {
		t.Errorf("search radius = %v (factor %v)", r, c)
	}
	if LowerBoundFactor(Weights{0, 1, 1}) != 0 {
		t.Error("a zero positional weight should leave no finite search radius")
	}
}

// TestSearchRadiusSound verifies the index contract directly: every pair
// within ε by TRACLUS distance is within eps / LowerBoundFactor(w) by
// Euclidean mindist.
func TestSearchRadiusSound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const eps = 40.0
	c := LowerBoundFactor(DefaultWeights())
	if c == 0 {
		t.Fatal("no radius")
	}
	radius := eps / c
	for i := 0; i < 2000; i++ {
		a, b := randSeg(rng), randSeg(rng)
		if Dist(a, b) <= eps && a.MinDist(b) > radius {
			t.Fatalf("pair within eps but outside search radius: %v, %v", a, b)
		}
	}
}

func TestComponentsOrderInternally(t *testing.T) {
	long := geom.Seg(0, 0, 100, 0)
	short := geom.Seg(10, 5, 20, 5)
	p1, l1, a1 := Components(long, short)
	p2, l2, a2 := Components(short, long)
	if p1 != p2 || l1 != l2 || a1 != a2 {
		t.Error("Components not order independent")
	}
}

func TestDegenerateSegmentDistance(t *testing.T) {
	// A zero-length segment behaves as a point: d⊥ is its line distance,
	// angle contributes 0.
	li := geom.Seg(0, 0, 10, 0)
	pt := geom.Seg(5, 3, 5, 3)
	dp, dl, da := Components(li, pt)
	if !approx(dp, 3, 1e-12) {
		t.Errorf("d_perp = %v", dp)
	}
	if !approx(dl, 5, 1e-12) { // projection at x=5, min endpoint distance 5
		t.Errorf("d_par = %v", dl)
	}
	if da != 0 {
		t.Errorf("d_theta = %v", da)
	}
}

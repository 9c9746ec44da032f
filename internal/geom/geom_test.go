package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(3, 4), Pt(1, -2)
	if got := p.Add(q); !got.Eq(Pt(4, 2)) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); !got.Eq(Pt(2, 6)) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); !got.Eq(Pt(6, 8)) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != 3*(-2)-4*1 {
		t.Errorf("Cross = %v", got)
	}
}

func TestPointNorms(t *testing.T) {
	p := Pt(3, 4)
	if p.Norm() != 5 {
		t.Errorf("Norm = %v", p.Norm())
	}
	if p.Norm2() != 25 {
		t.Errorf("Norm2 = %v", p.Norm2())
	}
	if d := p.Dist(Pt(0, 0)); d != 5 {
		t.Errorf("Dist = %v", d)
	}
	if d := p.Dist2(Pt(0, 0)); d != 25 {
		t.Errorf("Dist2 = %v", d)
	}
}

func TestPointLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0); !got.Eq(a) {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); !got.Eq(b) {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); !got.Eq(Pt(5, 10)) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestPointUnit(t *testing.T) {
	if got := Pt(3, 4).Unit(); !approx(got.Norm(), 1, 1e-12) {
		t.Errorf("Unit norm = %v", got.Norm())
	}
	if got := Pt(0, 0).Unit(); !got.Eq(Pt(0, 0)) {
		t.Errorf("Unit of zero = %v", got)
	}
}

func TestPointRotate(t *testing.T) {
	got := Pt(1, 0).Rotate(math.Pi / 2)
	if !got.NearEq(Pt(0, 1), 1e-12) {
		t.Errorf("Rotate 90 = %v", got)
	}
}

func TestRotateInverseProperty(t *testing.T) {
	f := func(x, y, phi float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(phi) ||
			math.Abs(x) > 1e6 || math.Abs(y) > 1e6 {
			return true
		}
		p := Pt(x, y)
		back := p.Rotate(phi).Rotate(-phi)
		tol := 1e-9 * (1 + p.Norm())
		return back.NearEq(p, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotatePreservesNorm(t *testing.T) {
	f := func(x, y, phi float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(phi) ||
			math.Abs(x) > 1e6 || math.Abs(y) > 1e6 {
			return true
		}
		p := Pt(x, y)
		return approx(p.Rotate(phi).Norm(), p.Norm(), 1e-6*(1+p.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointIsFinite(t *testing.T) {
	if !Pt(1, 2).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	for _, p := range []Point{
		{math.NaN(), 0}, {0, math.NaN()},
		{math.Inf(1), 0}, {0, math.Inf(-1)},
	} {
		if p.IsFinite() {
			t.Errorf("%v reported finite", p)
		}
	}
}

func TestSegmentBasics(t *testing.T) {
	s := Seg(0, 0, 3, 4)
	if s.Length() != 5 {
		t.Errorf("Length = %v", s.Length())
	}
	if s.Length2() != 25 {
		t.Errorf("Length2 = %v", s.Length2())
	}
	if !s.Midpoint().Eq(Pt(1.5, 2)) {
		t.Errorf("Midpoint = %v", s.Midpoint())
	}
	if !s.Vector().Eq(Pt(3, 4)) {
		t.Errorf("Vector = %v", s.Vector())
	}
	r := s.Reverse()
	if !r.Start.Eq(s.End) || !r.End.Eq(s.Start) {
		t.Errorf("Reverse = %v", r)
	}
	if s.IsDegenerate() {
		t.Error("non-degenerate segment reported degenerate")
	}
	if !Seg(1, 1, 1, 1).IsDegenerate() {
		t.Error("degenerate segment not detected")
	}
}

func TestProjectParamFormula4(t *testing.T) {
	// Formula (4) of the paper: u = (s_i->p · s_i->e_i) / |s_i e_i|².
	s := Seg(0, 0, 10, 0)
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 3), 0.5},
		{Pt(0, 7), 0},
		{Pt(10, -2), 1},
		{Pt(-5, 1), -0.5},
		{Pt(20, 0), 2},
	}
	for _, c := range cases {
		if got := s.ProjectParam(c.p); !approx(got, c.want, 1e-12) {
			t.Errorf("ProjectParam(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestProjectDegenerate(t *testing.T) {
	s := Seg(2, 3, 2, 3)
	if got := s.Project(Pt(9, 9)); !got.Eq(Pt(2, 3)) {
		t.Errorf("Project onto degenerate = %v", got)
	}
	if got := s.ProjectParam(Pt(9, 9)); got != 0 {
		t.Errorf("ProjectParam onto degenerate = %v", got)
	}
}

func TestClosestPointAndDist(t *testing.T) {
	s := Seg(0, 0, 10, 0)
	cases := []struct {
		p     Point
		want  Point
		wantD float64
	}{
		{Pt(5, 3), Pt(5, 0), 3},
		{Pt(-4, 3), Pt(0, 0), 5},
		{Pt(14, 3), Pt(10, 0), 5},
	}
	for _, c := range cases {
		if got := s.ClosestPoint(c.p); !got.NearEq(c.want, 1e-12) {
			t.Errorf("ClosestPoint(%v) = %v, want %v", c.p, got, c.want)
		}
		if got := s.DistToPoint(c.p); !approx(got, c.wantD, 1e-12) {
			t.Errorf("DistToPoint(%v) = %v, want %v", c.p, got, c.wantD)
		}
	}
}

func TestPerpendicularDistUsesLine(t *testing.T) {
	s := Seg(0, 0, 10, 0)
	// Beyond the end: the segment distance is 5 but the line distance 3.
	if got := s.PerpendicularDist(Pt(14, 3)); !approx(got, 3, 1e-12) {
		t.Errorf("PerpendicularDist = %v, want 3", got)
	}
}

func TestAngleFormula5(t *testing.T) {
	base := Seg(0, 0, 10, 0)
	cases := []struct {
		s    Segment
		want float64
	}{
		{Seg(0, 0, 5, 0), 0},
		{Seg(0, 0, 0, 5), math.Pi / 2},
		{Seg(0, 0, -5, 0), math.Pi},
		{Seg(0, 0, 5, 5), math.Pi / 4},
	}
	for _, c := range cases {
		if got := base.Angle(c.s); !approx(got, c.want, 1e-12) {
			t.Errorf("Angle(%v) = %v, want %v", c.s, got, c.want)
		}
	}
	// Degenerate segments have angle 0 by definition.
	if got := base.Angle(Seg(1, 1, 1, 1)); got != 0 {
		t.Errorf("Angle with degenerate = %v", got)
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		a, b Segment
		want bool
	}{
		{Seg(0, 0, 10, 10), Seg(0, 10, 10, 0), true}, // crossing
		{Seg(0, 0, 10, 0), Seg(5, 0, 15, 0), true},   // collinear overlap
		{Seg(0, 0, 10, 0), Seg(10, 0, 20, 5), true},  // touching endpoint
		{Seg(0, 0, 10, 0), Seg(0, 1, 10, 1), false},  // parallel apart
		{Seg(0, 0, 10, 0), Seg(11, 0, 20, 0), false}, // collinear disjoint
		{Seg(0, 0, 1, 1), Seg(2, 2, 3, 3), false},    // collinear diagonal disjoint
		{Seg(0, 0, 4, 4), Seg(2, 2, 6, 6), true},     // collinear diagonal overlap
		{Seg(0, 0, 10, 0), Seg(5, -5, 5, 5), true},   // T crossing
		{Seg(0, 0, 10, 0), Seg(5, 1, 5, 5), false},   // above
	}
	for _, c := range cases {
		if got := c.a.Intersects(c.b); got != c.want {
			t.Errorf("Intersects(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Intersects(c.a); got != c.want {
			t.Errorf("Intersects(%v, %v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestMinDist(t *testing.T) {
	cases := []struct {
		a, b Segment
		want float64
	}{
		{Seg(0, 0, 10, 0), Seg(0, 3, 10, 3), 3},   // parallel
		{Seg(0, 0, 10, 0), Seg(12, 0, 20, 0), 2},  // collinear gap
		{Seg(0, 0, 10, 10), Seg(0, 10, 10, 0), 0}, // crossing
		{Seg(0, 0, 10, 0), Seg(13, 4, 20, 4), 5},  // diagonal offset
	}
	for _, c := range cases {
		if got := c.a.MinDist(c.b); !approx(got, c.want, 1e-12) {
			t.Errorf("MinDist(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMinDistAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := Seg(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		b := Seg(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		got := a.MinDist(b)
		// Dense sampling can only overestimate the true minimum.
		best := math.Inf(1)
		for i := 0; i <= 50; i++ {
			p := a.Start.Lerp(a.End, float64(i)/50)
			if d := b.DistToPoint(p); d < best {
				best = d
			}
			q := b.Start.Lerp(b.End, float64(i)/50)
			if d := a.DistToPoint(q); d < best {
				best = d
			}
		}
		if got > best+1e-9 {
			t.Fatalf("MinDist(%v,%v) = %v exceeds sampled %v", a, b, got, best)
		}
		if best > got+5 { // sampling resolution bound
			t.Fatalf("MinDist(%v,%v) = %v far below sampled %v", a, b, got, best)
		}
	}
}

func TestSegmentTransforms(t *testing.T) {
	s := Seg(1, 2, 3, 4)
	tr := s.Translate(Pt(10, 20))
	if !tr.Start.Eq(Pt(11, 22)) || !tr.End.Eq(Pt(13, 24)) {
		t.Errorf("Translate = %v", tr)
	}
	rot := Seg(1, 0, 2, 0).Rotate(math.Pi / 2)
	if !rot.Start.NearEq(Pt(0, 1), 1e-12) || !rot.End.NearEq(Pt(0, 2), 1e-12) {
		t.Errorf("Rotate = %v", rot)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Pt(0, 0), Pt(4, 3)}
	if r.Width() != 4 || r.Height() != 3 {
		t.Errorf("extent = %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 12 {
		t.Errorf("Area = %v", r.Area())
	}
	if r.Margin() != 7 {
		t.Errorf("Margin = %v", r.Margin())
	}
	if !r.Center().Eq(Pt(2, 1.5)) {
		t.Errorf("Center = %v", r.Center())
	}
}

func TestRectOf(t *testing.T) {
	r := RectOf(Pt(3, 1), Pt(-1, 5), Pt(0, 0))
	want := Rect{Pt(-1, 0), Pt(3, 5)}
	if r != want {
		t.Errorf("RectOf = %v, want %v", r, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("RectOf() of nothing did not panic")
		}
	}()
	RectOf()
}

func TestRectSetOps(t *testing.T) {
	a := Rect{Pt(0, 0), Pt(2, 2)}
	b := Rect{Pt(1, 1), Pt(3, 3)}
	if got := a.Union(b); got != (Rect{Pt(0, 0), Pt(3, 3)}) {
		t.Errorf("Union = %v", got)
	}
	if !a.Contains(Pt(1, 1)) || a.Contains(Pt(3, 1)) {
		t.Error("Contains wrong")
	}
}

func TestRectDist(t *testing.T) {
	r := Rect{Pt(0, 0), Pt(2, 2)}
	if d := r.Dist(Pt(1, 1)); d != 0 {
		t.Errorf("Dist inside = %v", d)
	}
	if d := r.Dist(Pt(5, 2)); d != 3 {
		t.Errorf("Dist right = %v", d)
	}
	if d := r.Dist(Pt(5, 6)); !approx(d, 5, 1e-12) {
		t.Errorf("Dist corner = %v", d)
	}
	q := Rect{Pt(5, 0), Pt(6, 2)}
	if d := r.DistRect(q); d != 3 {
		t.Errorf("DistRect = %v", d)
	}
	if d := r.DistRect(r); d != 0 {
		t.Errorf("DistRect self = %v", d)
	}
}

func TestRectExpand(t *testing.T) {
	r := Rect{Pt(0, 0), Pt(2, 2)}.Expand(1)
	if r != (Rect{Pt(-1, -1), Pt(3, 3)}) {
		t.Errorf("Expand = %v", r)
	}
	e := Rect{Pt(0, 0), Pt(1, 1)}.ExpandPoint(Pt(5, -2))
	if e != (Rect{Pt(0, -2), Pt(5, 1)}) {
		t.Errorf("ExpandPoint = %v", e)
	}
}

func TestEnlargementNeeded(t *testing.T) {
	a := Rect{Pt(0, 0), Pt(2, 2)}
	if got := a.EnlargementNeeded(a); got != 0 {
		t.Errorf("self enlargement = %v", got)
	}
	if got := a.EnlargementNeeded(Rect{Pt(0, 0), Pt(4, 2)}); got != 4 {
		t.Errorf("enlargement = %v", got)
	}
}

func TestSegmentBounds(t *testing.T) {
	s := Seg(5, 1, 2, 7)
	if got := s.Bounds(); got != (Rect{Pt(2, 1), Pt(5, 7)}) {
		t.Errorf("Bounds = %v", got)
	}
}

func TestStringers(t *testing.T) {
	if Pt(1, 2).String() == "" || Seg(0, 0, 1, 1).String() == "" ||
		(Rect{Pt(0, 0), Pt(1, 1)}).String() == "" {
		t.Error("empty String()")
	}
}

// TestRectWithinDistMatchesDistRect pins the square-root-free candidate
// predicates to the comparisons they stand for: WithinDist must decide
// exactly as DistRect(q) <= d, and BeyondDist as DistRect(q) > d, on random
// rectangles, on extreme magnitudes (1e±200, subnormals, MaxFloat64/2), on
// ±Inf and NaN, and with d on and beside the exact DistRect — the band
// where only math.Hypot can decide.
func TestRectWithinDistMatchesDistRect(t *testing.T) {
	check := func(r, q Rect, d float64) {
		t.Helper()
		dr := r.DistRect(q)
		if got := r.WithinDist(q, d); got != (dr <= d) {
			t.Fatalf("%v.WithinDist(%v, %v) = %v, but DistRect = %v", r, q, d, got, dr)
		}
		if got := r.BeyondDist(q, d); got != (dr > d) {
			t.Fatalf("%v.BeyondDist(%v, %v) = %v, but DistRect = %v", r, q, d, got, dr)
		}
	}
	// around checks d at the exact DistRect, the floats either side of it,
	// the square root of the squared distance (which may round differently
	// from Hypot), and points just outside the squared comparison's band.
	around := func(r, q Rect) {
		t.Helper()
		dr := r.DistRect(q)
		dx := math.Max(0, math.Max(q.Min.X-r.Max.X, r.Min.X-q.Max.X))
		dy := math.Max(0, math.Max(q.Min.Y-r.Max.Y, r.Min.Y-q.Max.Y))
		for _, d := range []float64{
			dr, math.Nextafter(dr, math.Inf(-1)), math.Nextafter(dr, math.Inf(1)),
			math.Sqrt(dx*dx + dy*dy), dr * (1 - 0x1p-30), dr * (1 + 0x1p-30),
		} {
			check(r, q, d)
		}
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		r := Rect{Pt(x, y), Pt(x+rng.Float64()*60, y+rng.Float64()*60)}
		x, y = rng.Float64()*1000, rng.Float64()*1000
		q := Rect{Pt(x, y), Pt(x+rng.Float64()*60, y+rng.Float64()*60)}
		around(r, q)
		check(r, q, rng.Float64()*300)
	}

	// Squares that underflow into the subnormal range, where rounding is no
	// longer relative: dx² rounds to 0 and dy² down while d² rounds up, so
	// dx² + dy² < d² would say "within" although Hypot(dx, dy) > d.
	unit := 0x1p-537
	dx, dy, d := math.Sqrt(0.4)*unit, math.Sqrt(2.4)*unit, math.Sqrt(2.6)*unit
	check(Rect{}, Rect{Pt(dx, dy), Pt(dx, dy)}, d)

	extremes := []float64{
		0, math.Copysign(0, -1), 1, -1, 1e200, -1e200, 1e-200, -1e-200,
		5e-324, -5e-324, 0x1p-1022, math.MaxFloat64 / 2, -math.MaxFloat64 / 2,
		math.MaxFloat64, 0x1p500, 0x1p-500, 3e150, -3e150,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	pick := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.NormFloat64() * 100
		}
		return extremes[rng.Intn(len(extremes))]
	}
	for i := 0; i < 50000; i++ {
		r := Rect{Pt(pick(), pick()), Pt(pick(), pick())}
		q := Rect{Pt(pick(), pick()), Pt(pick(), pick())}
		around(r, q)
		check(r, q, pick())
	}
}

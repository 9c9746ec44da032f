package geometry

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"", Planar, true},
		{"planar", Planar, true},
		{"euclidean", Planar, true},
		{"xy", Planar, true},
		{"spatiotemporal", Spatiotemporal, true},
		{"st", Spatiotemporal, true},
		{"temporal", Spatiotemporal, true},
		{"geodesic", Geodesic, true},
		{"latlon", Geodesic, true},
		{"gps", Geodesic, true},
		{"hyperbolic", Planar, false},
		{"PLANAR", Planar, false}, // names are case-sensitive, like index names
	}
	for _, tc := range cases {
		got, ok := ParseKind(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	// String round-trips every kind through ParseKind.
	for _, k := range []Kind{Planar, Spatiotemporal, Geodesic} {
		if got, ok := ParseKind(k.String()); !ok || got != k {
			t.Errorf("ParseKind(%v.String()) = %v, %v", k, got, ok)
		}
	}
}

func TestIntervalGap(t *testing.T) {
	cases := []struct {
		a, b Interval
		want float64
	}{
		{Interval{Start: 0, End: 10}, Interval{Start: 5, End: 15}, 0},  // overlap
		{Interval{Start: 0, End: 10}, Interval{Start: 10, End: 20}, 0}, // touch
		{Interval{Start: 0, End: 10}, Interval{Start: 13, End: 20}, 3},
		{Interval{Start: 13, End: 20}, Interval{Start: 0, End: 10}, 3}, // symmetric
		{Interval{Start: 5, End: 5}, Interval{Start: 5, End: 5}, 0},    // instants
		{Interval{Start: 0, End: 2}, Interval{Start: 2.5, End: 2.5}, 0.5},
		{Interval{Start: 0, End: 10}, Interval{Start: -8, End: -3}, 3}, // before
	}
	for _, tc := range cases {
		if got := tc.a.Gap(tc.b); got != tc.want {
			t.Errorf("%+v.Gap(%+v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if tc.a.Gap(tc.b) != tc.b.Gap(tc.a) {
			t.Errorf("Gap not symmetric for %+v, %+v", tc.a, tc.b)
		}
	}
}

func TestIntervalUnionValid(t *testing.T) {
	u := Interval{Start: 3, End: 5}.Union(Interval{Start: 1, End: 4})
	if u != (Interval{Start: 1, End: 5}) {
		t.Errorf("Union = %+v", u)
	}
	if !(Interval{Start: 1, End: 1}).Valid() {
		t.Error("instant interval should be valid")
	}
	for _, bad := range []Interval{
		{Start: 2, End: 1},
		{Start: math.NaN(), End: 1},
		{Start: 0, End: math.Inf(1)},
	} {
		if bad.Valid() {
			t.Errorf("%+v should be invalid", bad)
		}
	}
}

func TestGeometryValidate(t *testing.T) {
	valid := []Geometry{
		NewPlanar(),
		NewSpatiotemporal(0),
		NewSpatiotemporal(2.5),
		NewGeodesic(),
		{Kind: Geodesic, Frame: &Frame{Lat0: 47.6, Lon0: -122.3}},
	}
	for _, g := range valid {
		if field, reason := g.Validate(); field != "" {
			t.Errorf("%+v invalid: %s %s", g, field, reason)
		}
	}
	invalid := []Geometry{
		{Kind: Kind(9)},
		NewSpatiotemporal(-1),
		NewSpatiotemporal(math.NaN()),
		{Kind: Planar, WT: 0.5},                   // wt without spatiotemporal
		{Kind: Planar, Frame: &Frame{}},           // frame without geodesic
		{Kind: Geodesic, Frame: &Frame{Lat0: 91}}, // origin out of range
		{Kind: Geodesic, Frame: &Frame{Lat0: math.NaN()}},
	}
	for _, g := range invalid {
		if field, _ := g.Validate(); field == "" {
			t.Errorf("%+v should be invalid", g)
		}
	}
	if !NewSpatiotemporal(1).Timed() || NewPlanar().Timed() || NewGeodesic().Timed() {
		t.Error("Timed() wrong for some kind")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Lat0: 47.6062, Lon0: -122.3321}
	pts := []geom.Point{
		{X: -122.3321, Y: 47.6062}, // origin
		{X: -122.30, Y: 47.65},
		{X: -122.40, Y: 47.55},
	}
	for _, p := range pts {
		w := f.ToWorking(p)
		back := f.FromWorking(w)
		if math.Abs(back.X-p.X) > 1e-9 || math.Abs(back.Y-p.Y) > 1e-9 {
			t.Errorf("round trip %v -> %v -> %v", p, w, back)
		}
	}
	// The origin maps to (0, 0) exactly.
	if o := f.ToWorking(geom.Point{X: f.Lon0, Y: f.Lat0}); o.X != 0 || o.Y != 0 {
		t.Errorf("origin maps to %v", o)
	}
	// One degree of latitude is ≈111.2 km everywhere; a degree of longitude
	// at 47.6°N is ≈cos(47.6°) of that — the distortion the frame corrects.
	north := f.ToWorking(geom.Point{X: f.Lon0, Y: f.Lat0 + 1})
	east := f.ToWorking(geom.Point{X: f.Lon0 + 1, Y: f.Lat0})
	if math.Abs(north.Y-111194.9) > 100 {
		t.Errorf("1° latitude = %.1f m", north.Y)
	}
	if ratio := east.X / north.Y; math.Abs(ratio-math.Cos(f.Lat0*degToRad)) > 1e-9 {
		t.Errorf("lon/lat meter ratio %v, want cos(lat0) %v", ratio, math.Cos(f.Lat0*degToRad))
	}
}

func TestFrameFor(t *testing.T) {
	b := geom.Rect{Min: geom.Pt(-122.5, 47.5), Max: geom.Pt(-122.1, 47.7)}
	f := FrameFor(b)
	if f.Lon0 != -122.3 || math.Abs(f.Lat0-47.6) > 1e-12 {
		t.Errorf("FrameFor = %+v", f)
	}
	// ProjectTrajectory is element-wise ToWorking.
	pts := []geom.Point{b.Min, b.Max}
	proj := f.ProjectTrajectory(pts)
	if len(proj) != 2 || proj[0] != f.ToWorking(pts[0]) || proj[1] != f.ToWorking(pts[1]) {
		t.Errorf("ProjectTrajectory = %v", proj)
	}
}

// FuzzFrameRoundTrip: FromWorking(ToWorking(p)) must return near-exactly p
// for any finite in-range input, and never NaN for a valid frame.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(47.6, -122.3, -122.33, 47.61)
	f.Add(0.0, 0.0, 1.0, -1.0)
	f.Add(-60.0, 170.0, 179.0, -59.0)
	f.Fuzz(func(t *testing.T, lat0, lon0, x, y float64) {
		fr := Frame{Lat0: lat0, Lon0: lon0}
		g := Geometry{Kind: Geodesic, Frame: &fr}
		if field, _ := g.Validate(); field != "" {
			t.Skip("invalid frame")
		}
		if math.Abs(lat0) > 85 {
			t.Skip("projection degenerate near the poles")
		}
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) ||
			math.Abs(x-lon0) > 10 || math.Abs(y-lat0) > 10 {
			t.Skip("outside a regional extent")
		}
		p := geom.Point{X: x, Y: y}
		w := fr.ToWorking(p)
		if math.IsNaN(w.X) || math.IsNaN(w.Y) {
			t.Fatalf("ToWorking(%v) = %v", p, w)
		}
		back := fr.FromWorking(w)
		// Regional extents stay well within a few mm of round-trip error.
		if math.Abs(back.X-p.X) > 1e-7 || math.Abs(back.Y-p.Y) > 1e-7 {
			t.Fatalf("round trip %v -> %v -> %v", p, w, back)
		}
	})
}

// TestCheckPoints pins the geodesic input rule at its bounds: |latitude| ≤
// 90 and |longitude| ≤ 360 degrees fit, one step past either does not, and
// the planar and spatiotemporal geometries take every point.
func TestCheckPoints(t *testing.T) {
	tr := func(x, y float64) geom.Trajectory {
		return geom.NewTrajectory(7, []geom.Point{geom.Pt(0, 0), geom.Pt(x, y)})
	}
	for _, p := range []geom.Point{geom.Pt(360, 90), geom.Pt(-360, -90), geom.Pt(-180, 45), geom.Pt(359.9, 0)} {
		if reason := NewGeodesic().CheckPoints(tr(p.X, p.Y)); reason != "" {
			t.Errorf("geodesic point %v rejected: %s", p, reason)
		}
	}
	for _, p := range []geom.Point{geom.Pt(0, math.Nextafter(90, 100)), geom.Pt(0, -100), geom.Pt(math.Nextafter(360, 400), 0), geom.Pt(-1e306, 0), geom.Pt(math.Inf(1), 0)} {
		if NewGeodesic().CheckPoints(tr(p.X, p.Y)) == "" {
			t.Errorf("geodesic point %v accepted", p)
		}
		for _, g := range []Geometry{NewPlanar(), NewSpatiotemporal(1)} {
			if reason := g.CheckPoints(tr(p.X, p.Y)); reason != "" {
				t.Errorf("%s point %v rejected: %s", g.Kind, p, reason)
			}
		}
	}
}

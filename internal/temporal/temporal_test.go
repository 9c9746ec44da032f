package temporal

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// corridorAt builds n timed trajectories along the horizontal corridor
// y=300, all starting at time t0 and advancing by dt per fix.
func corridorAt(n int, idBase int, t0, dt float64) []TimedTrajectory {
	var trs []TimedTrajectory
	for i := 0; i < n; i++ {
		tr := TimedTrajectory{ID: idBase + i, Weight: 1}
		for s := 0; s <= 20; s++ {
			tr.Points = append(tr.Points, geom.Pt(100+30*float64(s), 300+float64(i)))
			tr.Times = append(tr.Times, t0+dt*float64(s))
		}
		trs = append(trs, tr)
	}
	return trs
}

func TestValidate(t *testing.T) {
	good := corridorAt(1, 0, 0, 60)[0]
	if err := good.Validate(); err != nil {
		t.Errorf("valid rejected: %v", err)
	}
	bad := good
	bad.Times = bad.Times[:3]
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	rev := corridorAt(1, 0, 0, 60)[0]
	rev.Times[5] = rev.Times[4] - 1
	if err := rev.Validate(); err == nil {
		t.Error("decreasing times accepted")
	}
	nan := corridorAt(1, 0, 0, 60)[0]
	nan.Times[5] = math.NaN()
	if err := nan.Validate(); err == nil {
		t.Error("NaN time accepted")
	}
	short := TimedTrajectory{Points: []geom.Point{geom.Pt(0, 0)}, Times: []float64{0}}
	if err := short.Validate(); err == nil {
		t.Error("single point accepted")
	}
}

func TestIntervalGap(t *testing.T) {
	a := Interval{Start: 0, End: 10}
	cases := []struct {
		b    Interval
		want float64
	}{
		{Interval{Start: 5, End: 15}, 0},  // overlap
		{Interval{Start: 10, End: 20}, 0}, // touching
		{Interval{Start: 12, End: 20}, 2}, // after
		{Interval{Start: -8, End: -3}, 3}, // before
	}
	for _, c := range cases {
		if got := a.Gap(c.b); got != c.want {
			t.Errorf("Gap(%v) = %v, want %v", c.b, got, c.want)
		}
		if got := c.b.Gap(a); got != c.want {
			t.Errorf("Gap not symmetric for %v", c.b)
		}
	}
}

func TestSpatialConversion(t *testing.T) {
	tr := corridorAt(1, 7, 0, 60)[0]
	tr.Weight = 0 // unset → defaults to 1
	sp := tr.Spatial()
	if sp.ID != 7 || sp.Weight != 1 || len(sp.Points) != len(tr.Points) {
		t.Errorf("Spatial = %+v", sp)
	}
}

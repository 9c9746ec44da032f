package geom

import (
	"fmt"
	"math"
	"testing"
)

func TestTrajectorySegments(t *testing.T) {
	tr := NewTrajectory(1, []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1)})
	segs := tr.Segments()
	if len(segs) != 2 {
		t.Fatalf("Segments = %d, want 2", len(segs))
	}
	if segs[0] != Seg(0, 0, 1, 0) || segs[1] != Seg(1, 0, 1, 1) {
		t.Errorf("Segments = %v", segs)
	}
	if got := NewTrajectory(2, []Point{Pt(0, 0)}).Segments(); got != nil {
		t.Errorf("single-point Segments = %v", got)
	}
}

func TestTrajectoryPathLength(t *testing.T) {
	tr := NewTrajectory(1, []Point{Pt(0, 0), Pt(3, 4), Pt(3, 10)})
	if got := tr.PathLength(); got != 11 {
		t.Errorf("PathLength = %v", got)
	}
	if got := NewTrajectory(1, nil).PathLength(); got != 0 {
		t.Errorf("empty PathLength = %v", got)
	}
}

func TestTrajectoryDedup(t *testing.T) {
	tr := NewTrajectory(1, []Point{Pt(0, 0), Pt(0, 0), Pt(1, 1), Pt(1, 1), Pt(1, 1), Pt(2, 2)})
	got := tr.Dedup()
	if len(got.Points) != 3 {
		t.Fatalf("Dedup = %v", got.Points)
	}
	if got.ID != 1 || got.Weight != 1 {
		t.Error("Dedup dropped metadata")
	}
	if got.Times != nil {
		t.Errorf("untimed Dedup grew times %v", got.Times)
	}
	// Original untouched.
	if len(tr.Points) != 6 {
		t.Error("Dedup mutated input")
	}
	if got := NewTrajectory(1, nil).Dedup(); got.Points != nil {
		t.Errorf("Dedup of empty = %v", got.Points)
	}
	// A timed trajectory keeps the first timestamp of every collapsed run.
	timed := Trajectory{ID: 1, Weight: 1,
		Points: []Point{Pt(0, 0), Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(2, 2)},
		Times:  []float64{0, 5, 10, 20, 30}}
	if got := timed.Dedup(); len(got.Points) != 3 || fmt.Sprint(got.Times) != "[0 10 20]" {
		t.Errorf("timed Dedup = %v at %v, want 3 points at [0 10 20]", got.Points, got.Times)
	}
}

func TestTrajectoryValidate(t *testing.T) {
	ok := NewTrajectory(1, []Point{Pt(0, 0), Pt(1, 1)})
	if err := ok.Validate(); err != nil {
		t.Errorf("valid trajectory: %v", err)
	}
	cases := []Trajectory{
		NewTrajectory(1, []Point{Pt(0, 0)}),
		NewTrajectory(1, nil),
		{ID: 1, Weight: -1, Points: []Point{Pt(0, 0), Pt(1, 1)}},
		{ID: 1, Weight: math.NaN(), Points: []Point{Pt(0, 0), Pt(1, 1)}},
		{ID: 1, Weight: 1, Points: []Point{Pt(0, 0), {math.NaN(), 0}}},
		{ID: 1, Weight: 1, Points: []Point{Pt(0, 0), {0, math.Inf(1)}}},
	}
	for i, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: invalid trajectory passed validation", i)
		}
	}
}

func TestTrajectoryTranslate(t *testing.T) {
	tr := NewTrajectory(3, []Point{Pt(0, 0), Pt(1, 1)})
	tr.Label = "x"
	got := tr.Translate(Pt(10, 20))
	if !got.Points[0].Eq(Pt(10, 20)) || !got.Points[1].Eq(Pt(11, 21)) {
		t.Errorf("Translate = %v", got.Points)
	}
	if got.ID != 3 || got.Label != "x" {
		t.Error("Translate dropped metadata")
	}
	if !tr.Points[0].Eq(Pt(0, 0)) {
		t.Error("Translate mutated input")
	}
}

func TestTrajectoryBounds(t *testing.T) {
	tr := NewTrajectory(1, []Point{Pt(1, 5), Pt(-2, 0), Pt(4, 3)})
	if got := tr.Bounds(); got != (Rect{Pt(-2, 0), Pt(4, 5)}) {
		t.Errorf("Bounds = %v", got)
	}
}

func TestBoundsOf(t *testing.T) {
	trs := []Trajectory{
		NewTrajectory(1, []Point{Pt(0, 0), Pt(1, 1)}),
		NewTrajectory(2, []Point{Pt(-5, 3)}),
	}
	r, ok := BoundsOf(trs)
	if !ok || r != (Rect{Pt(-5, 0), Pt(1, 3)}) {
		t.Errorf("BoundsOf = %v, %v", r, ok)
	}
	if _, ok := BoundsOf(nil); ok {
		t.Error("BoundsOf(nil) reported ok")
	}
	if _, ok := BoundsOf([]Trajectory{{ID: 1}}); ok {
		t.Error("BoundsOf of empty trajectories reported ok")
	}
}

func TestTotalPoints(t *testing.T) {
	trs := []Trajectory{
		NewTrajectory(1, []Point{Pt(0, 0), Pt(1, 1)}),
		NewTrajectory(2, []Point{Pt(2, 2)}),
	}
	if got := TotalPoints(trs); got != 3 {
		t.Errorf("TotalPoints = %d", got)
	}
}

// corridorAt builds n timed trajectories along the horizontal corridor
// y=300, all starting at time t0 and advancing by dt per fix.
func corridorAt(n int, idBase int, t0, dt float64) []Trajectory {
	var trs []Trajectory
	for i := 0; i < n; i++ {
		tr := Trajectory{ID: idBase + i, Weight: 1}
		for s := 0; s <= 20; s++ {
			tr.Points = append(tr.Points, Pt(100+30*float64(s), 300+float64(i)))
			tr.Times = append(tr.Times, t0+dt*float64(s))
		}
		trs = append(trs, tr)
	}
	return trs
}

// TestValidate covers the time column: one finite, non-decreasing value
// per point, on top of the untimed checks.
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
	inf := corridorAt(1, 0, 0, 60)[0]
	inf.Times[20] = math.Inf(1)
	if err := inf.Validate(); err == nil {
		t.Error("+Inf time accepted")
	}
	short := Trajectory{Points: []Point{Pt(0, 0)}, Times: []float64{0}}
	if err := short.Validate(); err == nil {
		t.Error("single point accepted")
	}
	nanPt := corridorAt(1, 0, 0, 60)[0]
	nanPt.Points[3] = Pt(math.NaN(), 0)
	if err := nanPt.Validate(); err == nil {
		t.Error("NaN point of a timed trajectory accepted")
	}
	negW := corridorAt(1, 0, 0, 60)[0]
	negW.Weight = -2
	if err := negW.Validate(); err == nil {
		t.Error("negative weight of a timed trajectory accepted")
	}
}

package geom

import (
	"fmt"
	"math"
)

// Trajectory is an ordered sequence of observed positions of one moving
// object (TR_i = p1 p2 ... p_len in the paper). ID identifies the source
// trajectory so that segment clusters can be filtered by trajectory
// cardinality (Definition 10); Weight supports the weighted-trajectory
// extension of Section 4.2 (e.g. stronger hurricanes counting more).
//
// Times is the optional time column of the Section 7.1 extension ("one can
// expect that time is also recorded with location"): one timestamp per
// point, in any monotone unit, or nil for an untimed trajectory. The
// spatiotemporal geometry requires it and every other geometry refuses it.
type Trajectory struct {
	ID     int
	Label  string
	Weight float64
	Points []Point
	Times  []float64
}

// NewTrajectory builds a trajectory with weight 1.
func NewTrajectory(id int, pts []Point) Trajectory {
	return Trajectory{ID: id, Weight: 1, Points: pts}
}

// Len returns the number of points.
func (t Trajectory) Len() int { return len(t.Points) }

// Segments returns the len-1 consecutive line segments of the trajectory.
func (t Trajectory) Segments() []Segment {
	if len(t.Points) < 2 {
		return nil
	}
	segs := make([]Segment, 0, len(t.Points)-1)
	for i := 1; i < len(t.Points); i++ {
		segs = append(segs, Segment{t.Points[i-1], t.Points[i]})
	}
	return segs
}

// PathLength returns the total length along the trajectory.
func (t Trajectory) PathLength() float64 {
	var sum float64
	for i := 1; i < len(t.Points); i++ {
		sum += t.Points[i-1].Dist(t.Points[i])
	}
	return sum
}

// Bounds returns the minimum bounding rectangle of all points. It panics on
// an empty trajectory.
func (t Trajectory) Bounds() Rect { return RectOf(t.Points...) }

// Translate returns a copy of t shifted by d. ID, Label, and Weight are
// preserved.
func (t Trajectory) Translate(d Point) Trajectory {
	out := t
	out.Points = make([]Point, len(t.Points))
	for i, p := range t.Points {
		out.Points[i] = p.Add(d)
	}
	return out
}

// Dedup returns a copy of t with consecutive duplicate points removed.
// Repeated fixes at the same location are common in telemetry data and would
// otherwise produce degenerate partitions. A timed trajectory keeps the
// first timestamp of every run it collapses.
func (t Trajectory) Dedup() Trajectory {
	out := t
	out.Points, out.Times = nil, nil
	for i, p := range t.Points {
		if len(out.Points) == 0 || !p.Eq(out.Points[len(out.Points)-1]) {
			out.Points = append(out.Points, p)
			if t.Times != nil {
				out.Times = append(out.Times, t.Times[i])
			}
		}
	}
	return out
}

// Validate reports the first structural problem with the trajectory, or nil:
// fewer than two points, a negative or non-finite weight, a non-finite
// point, or — on a timed trajectory — a time column that is not one finite,
// non-decreasing value per point.
func (t Trajectory) Validate() error {
	if len(t.Points) < 2 {
		return fmt.Errorf("geom: trajectory %d has %d points, need at least 2", t.ID, len(t.Points))
	}
	if t.Weight < 0 || math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) {
		return fmt.Errorf("geom: trajectory %d has invalid weight %v", t.ID, t.Weight)
	}
	for i, p := range t.Points {
		if !p.IsFinite() {
			return fmt.Errorf("geom: trajectory %d point %d is not finite: %v", t.ID, i, p)
		}
	}
	if t.Times == nil {
		return nil
	}
	if len(t.Times) != len(t.Points) {
		return fmt.Errorf("geom: trajectory %d has %d points but %d times", t.ID, len(t.Points), len(t.Times))
	}
	for i, ts := range t.Times {
		if math.IsNaN(ts) || math.IsInf(ts, 0) {
			return fmt.Errorf("geom: trajectory %d time %d is not finite: %v", t.ID, i, ts)
		}
		if i > 0 && ts < t.Times[i-1] {
			return fmt.Errorf("geom: trajectory %d times not non-decreasing at %d", t.ID, i)
		}
	}
	return nil
}

// BoundsOf returns the bounding rectangle of a set of trajectories. ok is
// false when there are no points at all.
func BoundsOf(trs []Trajectory) (r Rect, ok bool) {
	for _, t := range trs {
		for _, p := range t.Points {
			if !ok {
				r = Rect{p, p}
				ok = true
			} else {
				r = r.ExpandPoint(p)
			}
		}
	}
	return r, ok
}

// TotalPoints returns the number of points across all trajectories.
func TotalPoints(trs []Trajectory) int {
	n := 0
	for _, t := range trs {
		n += len(t.Points)
	}
	return n
}

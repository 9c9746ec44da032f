// Package temporal holds the input type of the paper's Section 7.1 (item 5)
// extension, taking temporal information into account during clustering:
// "One can expect that time is also recorded with location."
//
// A TimedTrajectory carries a timestamp per point. Partitioning is
// unchanged (characteristic points are a purely spatial notion), but each
// trajectory partition inherits the time interval it spans
// (core.PartitionAllTimedCtx), and the clustering distance gains a fourth
// component: wT times the gap between two segments' time intervals, zero
// when they overlap (internal/geometry's spatiotemporal geometry, grouped
// through segclust.NewSharedIndexTimed). With wT = 0 the extension reduces
// exactly to plain TRACLUS.
package temporal

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/geometry"
)

// TimedTrajectory is a trajectory whose points carry timestamps (seconds,
// or any monotone unit).
type TimedTrajectory struct {
	ID     int
	Label  string
	Weight float64
	Points []geom.Point
	Times  []float64
}

// Validate reports structural problems: mismatched lengths, too few
// points, or non-increasing timestamps.
func (t TimedTrajectory) Validate() error {
	if len(t.Points) != len(t.Times) {
		return fmt.Errorf("temporal: trajectory %d has %d points but %d times", t.ID, len(t.Points), len(t.Times))
	}
	if len(t.Points) < 2 {
		return fmt.Errorf("temporal: trajectory %d has %d points, need at least 2", t.ID, len(t.Points))
	}
	for i := 1; i < len(t.Times); i++ {
		if !(t.Times[i] >= t.Times[i-1]) { // also catches NaN
			return fmt.Errorf("temporal: trajectory %d times not non-decreasing at %d", t.ID, i)
		}
	}
	return nil
}

// Spatial drops the timestamps.
func (t TimedTrajectory) Spatial() geom.Trajectory {
	w := t.Weight
	if w == 0 {
		w = 1
	}
	return geom.Trajectory{ID: t.ID, Label: t.Label, Weight: w, Points: t.Points}
}

// Interval is a closed time interval. Since the geometry layer refactor it
// is the one canonical interval type (internal/geometry owns it and the gap
// semantics); the alias keeps every existing temporal caller compiling.
type Interval = geometry.Interval

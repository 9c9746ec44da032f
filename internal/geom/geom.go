// Package geom provides the planar geometry substrate for TRACLUS:
// points, vectors, line segments, projections, rotations, and bounding
// rectangles. The paper (Lee, Han, Whang, SIGMOD 2007) defines its distance
// and partitioning machinery in terms of d-dimensional points but evaluates
// in two dimensions; this package implements the 2-D case used throughout
// the repository.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane. It doubles as a 2-D vector.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q, the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product p · q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Norm2 returns the squared Euclidean length of p viewed as a vector.
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Eq reports whether p and q are exactly equal.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// NearEq reports whether p and q agree within tol in each coordinate.
func (p Point) NearEq(q Point, tol float64) bool {
	return math.Abs(p.X-q.X) <= tol && math.Abs(p.Y-q.Y) <= tol
}

// Lerp returns the point p + t·(q-p); t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + t*(q.X-p.X), p.Y + t*(q.Y-p.Y)}
}

// Unit returns the unit vector in the direction of p. The zero vector is
// returned unchanged.
func (p Point) Unit() Point {
	n := p.Norm()
	if n == 0 {
		return p
	}
	return Point{p.X / n, p.Y / n}
}

// Rotate returns p rotated by angle phi (radians) counterclockwise about the
// origin.
func (p Point) Rotate(phi float64) Point {
	s, c := math.Sincos(phi)
	return Point{c*p.X - s*p.Y, s*p.X + c*p.Y}
}

// IsFinite reports whether both coordinates are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Segment is a directed line segment from Start to End. TRACLUS trajectory
// partitions, ε-neighborhood members, and cluster elements are all Segments.
type Segment struct {
	Start, End Point
}

// Seg is shorthand for constructing a Segment.
func Seg(sx, sy, ex, ey float64) Segment {
	return Segment{Point{sx, sy}, Point{ex, ey}}
}

// Vector returns End - Start, the direction vector of s.
func (s Segment) Vector() Point { return s.End.Sub(s.Start) }

// Length returns the Euclidean length of s.
func (s Segment) Length() float64 { return s.Start.Dist(s.End) }

// Length2 returns the squared length of s.
func (s Segment) Length2() float64 { return s.Start.Dist2(s.End) }

// Midpoint returns the midpoint of s.
func (s Segment) Midpoint() Point { return s.Start.Lerp(s.End, 0.5) }

// Reverse returns s with its direction flipped.
func (s Segment) Reverse() Segment { return Segment{s.End, s.Start} }

// IsDegenerate reports whether s has (near-)zero length.
func (s Segment) IsDegenerate() bool { return s.Length2() == 0 }

// String implements fmt.Stringer.
func (s Segment) String() string { return fmt.Sprintf("%v->%v", s.Start, s.End) }

// ProjectParam returns the parameter u such that Start + u·(End-Start) is the
// orthogonal projection of p onto the line through s (Formula 4 of the
// paper). For a degenerate segment it returns 0, so the projection collapses
// to the segment's single point.
func (s Segment) ProjectParam(p Point) float64 {
	d := s.Vector()
	l2 := d.Norm2()
	if l2 == 0 {
		return 0
	}
	return p.Sub(s.Start).Dot(d) / l2
}

// Project returns the orthogonal projection of p onto the (infinite) line
// through s.
func (s Segment) Project(p Point) Point {
	return s.Start.Add(s.Vector().Scale(s.ProjectParam(p)))
}

// ClosestPoint returns the point of the segment (not the infinite line)
// closest to p.
func (s Segment) ClosestPoint(p Point) Point {
	u := s.ProjectParam(p)
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	return s.Start.Add(s.Vector().Scale(u))
}

// DistToPoint returns the Euclidean distance from p to the segment s.
func (s Segment) DistToPoint(p Point) float64 {
	return p.Dist(s.ClosestPoint(p))
}

// PerpendicularDist returns the distance from p to the infinite line through
// s. For a degenerate segment it is the distance to the segment's point.
func (s Segment) PerpendicularDist(p Point) float64 {
	return p.Dist(s.Project(p))
}

// Angle returns the smaller intersecting angle θ ∈ [0, π] between the
// direction vectors of s and t (Formula 5). If either segment is degenerate
// the angle is defined as 0: a zero-length segment has no direction, and the
// paper's angle distance vanishes with the segment's length anyway.
func (s Segment) Angle(t Segment) float64 {
	v, w := s.Vector(), t.Vector()
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	c := v.Dot(w) / (nv * nw)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

// MinDist returns the minimum Euclidean distance between the two segments.
// It is 0 when they intersect. This underlies the index prefilter bound
// (DESIGN.md §3).
func (s Segment) MinDist(t Segment) float64 {
	if s.Intersects(t) {
		return 0
	}
	d := s.DistToPoint(t.Start)
	if v := s.DistToPoint(t.End); v < d {
		d = v
	}
	if v := t.DistToPoint(s.Start); v < d {
		d = v
	}
	if v := t.DistToPoint(s.End); v < d {
		d = v
	}
	return d
}

// Intersects reports whether the two closed segments share at least one
// point.
func (s Segment) Intersects(t Segment) bool {
	d1 := s.Vector().Cross(t.Start.Sub(s.Start))
	d2 := s.Vector().Cross(t.End.Sub(s.Start))
	d3 := t.Vector().Cross(s.Start.Sub(t.Start))
	d4 := t.Vector().Cross(s.End.Sub(t.Start))
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	if d1 == 0 && s.onSegment(t.Start) {
		return true
	}
	if d2 == 0 && s.onSegment(t.End) {
		return true
	}
	if d3 == 0 && t.onSegment(s.Start) {
		return true
	}
	if d4 == 0 && t.onSegment(s.End) {
		return true
	}
	return false
}

// onSegment reports whether p, known to be collinear with s, lies within s's
// bounding box.
func (s Segment) onSegment(p Point) bool {
	return math.Min(s.Start.X, s.End.X) <= p.X && p.X <= math.Max(s.Start.X, s.End.X) &&
		math.Min(s.Start.Y, s.End.Y) <= p.Y && p.Y <= math.Max(s.Start.Y, s.End.Y)
}

// Bounds returns the minimum bounding rectangle of s.
func (s Segment) Bounds() Rect {
	return Rect{
		Min: Point{math.Min(s.Start.X, s.End.X), math.Min(s.Start.Y, s.End.Y)},
		Max: Point{math.Max(s.Start.X, s.End.X), math.Max(s.Start.Y, s.End.Y)},
	}
}

// Translate returns s shifted by the vector d.
func (s Segment) Translate(d Point) Segment {
	return Segment{s.Start.Add(d), s.End.Add(d)}
}

// Rotate returns s rotated by phi radians counterclockwise about the origin.
func (s Segment) Rotate(phi float64) Segment {
	return Segment{s.Start.Rotate(phi), s.End.Rotate(phi)}
}

// Rect is an axis-aligned rectangle, used as a minimum bounding rectangle by
// the spatial indexes.
type Rect struct {
	Min, Max Point
}

// RectOf returns the smallest Rect containing all the given points. It
// panics if pts is empty.
func RectOf(pts ...Point) Rect {
	if len(pts) == 0 {
		panic("geom: RectOf of no points")
	}
	r := Rect{pts[0], pts[0]}
	for _, p := range pts[1:] {
		r = r.ExpandPoint(p)
	}
	return r
}

// Width returns the X extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the Y extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns half the perimeter of r.
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Union returns the smallest rectangle containing both r and q.
func (r Rect) Union(q Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, q.Min.X), math.Min(r.Min.Y, q.Min.Y)},
		Max: Point{math.Max(r.Max.X, q.Max.X), math.Max(r.Max.Y, q.Max.Y)},
	}
}

// Contains reports whether p lies inside the closed rectangle r.
func (r Rect) Contains(p Point) bool {
	return r.Min.X <= p.X && p.X <= r.Max.X && r.Min.Y <= p.Y && p.Y <= r.Max.Y
}

// Expand returns r grown by d on every side.
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// ExpandPoint returns the smallest rectangle containing r and p.
func (r Rect) ExpandPoint(p Point) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
}

// Dist returns the minimum Euclidean distance between r and the point p;
// zero if p is inside r.
func (r Rect) Dist(p Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// DistRect returns the minimum Euclidean distance between the two
// rectangles; zero if they intersect.
func (r Rect) DistRect(q Rect) float64 {
	dx := math.Max(0, math.Max(q.Min.X-r.Max.X, r.Min.X-q.Max.X))
	dy := math.Max(0, math.Max(q.Min.Y-r.Max.Y, r.Min.Y-q.Max.Y))
	return math.Hypot(dx, dy)
}

// WithinDist reports whether r.DistRect(q) <= d, and BeyondDist whether
// r.DistRect(q) > d. They decide exactly as those comparisons for every
// input — the two differ only when DistRect is NaN, which neither
// comparison holds for — but compare squared distances and leave the
// square root to the rare inputs near the boundary.
//
// They are the candidate tests of the spatial indexes: WithinDist accepts a
// grid candidate, BeyondDist prunes an R-tree entry (a node whose MBR is NaN
// is not pruned, so finite segments below it stay reachable).
func (r Rect) WithinDist(q Rect, d float64) bool { return r.distAgainst(q, d) <= d }

// BeyondDist reports whether r.DistRect(q) > d; see WithinDist.
func (r Rect) BeyondDist(q Rect, d float64) bool { return r.distAgainst(q, d) > d }

// Bounds of the squared comparison in distAgainst. Values up to squaredMax
// square without overflow, and d ≥ squaredMin keeps d² far above the
// subnormal range, where a square of a tiny dx or dy loses at most 2⁻¹⁰⁷⁴.
// So dx² + dy² and d² carry a relative error of a few ulps, against
// math.Hypot's own error of at most 2 ulps. squaredBand is the relative
// distance from d² inside which the squared comparison could disagree with
// Hypot's rounding; 2⁻³² is some 10⁶ times those errors, so outside the
// band both decide alike, and inside it Hypot decides.
const (
	squaredMin  = 0x1p-500
	squaredMax  = 0x1p500
	squaredBand = 0x1p-32
)

// distAgainst returns a value that compares with d exactly as
// r.DistRect(q) does: 0 where dx² + dy² is clearly below d², +Inf where it
// is clearly above, and DistRect(q) itself otherwise — when a value is
// non-finite or outside [squaredMin, squaredMax], or dx² + dy² lies within
// squaredBand of d². The builtin max is NaN or +Inf whenever an operand is
// non-finite other than −Inf, so such inputs never take the squared path;
// on the others it equals DistRect's math.Max chain.
func (r Rect) distAgainst(q Rect, d float64) float64 {
	dx := max(q.Min.X-r.Max.X, r.Min.X-q.Max.X, 0)
	dy := max(q.Min.Y-r.Max.Y, r.Min.Y-q.Max.Y, 0)
	if max(dx, dy, d) <= squaredMax && d >= squaredMin {
		s, d2 := dx*dx+dy*dy, d*d
		if s < d2*(1-squaredBand) {
			return 0
		}
		if s > d2*(1+squaredBand) {
			return math.Inf(1)
		}
	}
	return r.DistRect(q)
}

// EnlargementNeeded returns how much r's area must grow to include q.
func (r Rect) EnlargementNeeded(q Rect) float64 {
	return r.Union(q).Area() - r.Area()
}

// String implements fmt.Stringer.
func (r Rect) String() string { return fmt.Sprintf("[%v %v]", r.Min, r.Max) }

// Package geometry defines the pluggable segment-geometry layer: what a
// "distance between two line segments" means for a dataset, together with
// the conservative candidate bound the spatial indexes rely on and the
// coordinate frame the model's internals operate in.
//
// Three geometries are first-class:
//
//   - Planar (the default): the TRACLUS distance of Section 2.3 over raw
//     Euclidean coordinates. This is exactly the pre-existing path — a
//     planar Geometry threads through every layer without changing a single
//     floating-point operation.
//
//   - Spatiotemporal (§7.1 of the paper): the planar distance plus a
//     weighted temporal gap term wT·gap(Ia, Ib), where Ia, Ib are the time
//     intervals spanned by the two segments and gap is zero for overlapping
//     intervals and the distance between the nearer endpoints otherwise.
//     With wT = 0 this reduces exactly to the planar distance.
//
//   - Geodesic: raw coordinates are (longitude, latitude) in degrees. The
//     model works in a dataset-derived equirectangular projection (meters),
//     so all planar machinery — kernels, indexes, MDL partitioning —
//     applies unchanged; the Frame that did the projection is part of the
//     model and must be persisted so later queries project identically.
//
// # Pruning-bound invariant
//
// Every spatial index backend prunes with the geometric lower bound
// dist ≥ c·mindist (lsdist.LowerBoundFactor): a candidate search at radius
// ε/c can produce false positives but never false negatives. Each geometry
// must preserve that one-sided guarantee:
//
//   - Planar: the bound holds by construction (proved in lsdist).
//   - Spatiotemporal: the temporal term wT·gap is non-negative, so
//     dist_st(a,b) ≥ dist_planar(a,b) ≥ c·mindist(a,b). Any pair within ε
//     under the spatiotemporal distance is within ε under the planar
//     distance, hence inside the planar candidate radius ε/c. The planar
//     prefilter therefore remains complete — candidates and the spatial
//     part of every distance are computed exactly as in the planar path,
//     and the gap term is added afterwards per surviving candidate.
//   - Geodesic: the working frame is planar (meters), so the planar bound
//     applies verbatim to projected coordinates.
package geometry

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Kind enumerates the built-in geometries. The zero value is Planar, so a
// zero Geometry (and every pre-existing Config) means "the current path".
type Kind uint8

const (
	Planar Kind = iota
	Spatiotemporal
	Geodesic
)

// String returns the canonical lowercase name used in configs, snapshots,
// and the daemon's geometry= build parameter.
func (k Kind) String() string {
	switch k {
	case Planar:
		return "planar"
	case Spatiotemporal:
		return "spatiotemporal"
	case Geodesic:
		return "geodesic"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind maps a user-supplied name (canonical names plus a few obvious
// aliases) to a Kind. The boolean reports success; callers translate a
// failure into their layer's typed configuration error.
func ParseKind(s string) (Kind, bool) {
	switch s {
	case "", "planar", "euclidean", "xy":
		return Planar, true
	case "spatiotemporal", "st", "temporal":
		return Spatiotemporal, true
	case "geodesic", "latlon", "gps":
		return Geodesic, true
	}
	return Planar, false
}

// Interval is a closed time span [Start, End], in whatever unit the
// dataset's timestamps use (the distance only ever sees differences).
type Interval struct {
	Start, End float64
}

// Gap is the temporal distance between two intervals: 0 when they overlap
// or touch, otherwise the gap between the nearer endpoints.
func (iv Interval) Gap(other Interval) float64 {
	if iv.Start > other.End {
		return iv.Start - other.End
	}
	if other.Start > iv.End {
		return other.Start - iv.End
	}
	return 0
}

// Union is the smallest interval covering both.
func (iv Interval) Union(other Interval) Interval {
	return Interval{Start: math.Min(iv.Start, other.Start), End: math.Max(iv.End, other.End)}
}

// Valid reports whether the interval is finite and ordered.
func (iv Interval) Valid() bool {
	return !math.IsNaN(iv.Start) && !math.IsInf(iv.Start, 0) &&
		!math.IsNaN(iv.End) && !math.IsInf(iv.End, 0) && iv.Start <= iv.End
}

// Geometry selects a distance mode for a model build. The zero value is
// planar Euclidean — the exact pre-existing path.
type Geometry struct {
	Kind Kind
	// WT is the temporal weight wT (Spatiotemporal only). WT = 0 reduces
	// the spatiotemporal distance exactly to the planar one.
	WT float64
	// Frame is the resolved equirectangular projection (Geodesic only).
	// It is derived from the data bounds at build time and persisted with
	// the model so queries project identically; nil until resolved.
	Frame *Frame
}

// NewPlanar returns the default planar Euclidean geometry.
func NewPlanar() Geometry { return Geometry{Kind: Planar} }

// NewSpatiotemporal returns the spatiotemporal geometry with temporal
// weight wt.
func NewSpatiotemporal(wt float64) Geometry { return Geometry{Kind: Spatiotemporal, WT: wt} }

// NewGeodesic returns the geodesic lat/lon geometry; its projection frame
// is resolved from the data bounds at build time.
func NewGeodesic() Geometry { return Geometry{Kind: Geodesic} }

// Validate reports whether the geometry is internally consistent: a known
// kind, a finite non-negative temporal weight only on the spatiotemporal
// kind, and a frame only on the geodesic kind. It returns a field name and
// reason for the caller to wrap into its typed config error ("" = valid).
func (g Geometry) Validate() (field, reason string) {
	switch g.Kind {
	case Planar, Spatiotemporal, Geodesic:
	default:
		return "Geometry", "unknown geometry kind"
	}
	if math.IsNaN(g.WT) || math.IsInf(g.WT, 0) || g.WT < 0 {
		return "TemporalWeight", "must be finite and non-negative"
	}
	if g.WT != 0 && g.Kind != Spatiotemporal {
		return "TemporalWeight", "only valid with the spatiotemporal geometry"
	}
	if g.Frame != nil && g.Kind != Geodesic {
		return "Geometry", "projection frame only valid with the geodesic geometry"
	}
	if g.Frame != nil {
		if f := *g.Frame; math.IsNaN(f.Lat0) || math.IsInf(f.Lat0, 0) ||
			math.IsNaN(f.Lon0) || math.IsInf(f.Lon0, 0) ||
			f.Lat0 < -90 || f.Lat0 > 90 {
			return "Geometry", "projection frame origin out of range"
		}
	}
	return "", ""
}

// Timed reports whether the geometry's trajectories carry Times: the
// spatiotemporal geometry requires them, and every other refuses them.
func (g Geometry) Timed() bool { return g.Kind == Spatiotemporal }

// The geodesic input rule: |latitude| ≤ maxLatitude and |longitude| ≤
// maxLongitude degrees. The longitude bound admits both the [−180, 180] and
// the [0, 360] conventions, and it keeps every projected coordinate finite:
// a frame origin resolved inside the same bounds is at most 720° of
// longitude from any point.
const (
	maxLatitude  = 90
	maxLongitude = 360
)

// CheckPoints reports the first raw point of tr the geometry cannot take,
// as a reason for the caller to wrap into its typed config error ("" =
// every point fits). Only the geodesic geometry restricts points, to the
// input rule above; a NaN coordinate is left to the trajectory's Validate.
func (g Geometry) CheckPoints(tr geom.Trajectory) (reason string) {
	if g.Kind != Geodesic {
		return ""
	}
	for i, p := range tr.Points {
		if math.Abs(p.Y) > maxLatitude || math.Abs(p.X) > maxLongitude {
			return fmt.Sprintf("trajectory %d point %d (longitude %g, latitude %g) is outside |longitude| ≤ %d, |latitude| ≤ %d degrees",
				tr.ID, i, p.X, p.Y, maxLongitude, maxLatitude)
		}
	}
	return ""
}

// EarthRadiusMeters is the IUGG mean Earth radius.
const EarthRadiusMeters = 6371008.8

const degToRad = math.Pi / 180

// Frame is a dataset-derived equirectangular projection: raw (lon, lat)
// degrees map to a local tangent plane in meters centered on (Lat0, Lon0).
// Adequate for the regional extents trajectory clustering operates on; the
// model is built, indexed, and classified entirely in the working frame.
type Frame struct {
	Lat0, Lon0 float64
}

// FrameFor derives the projection frame from the lat/lon bounds of the
// input data (Point.X = longitude, Point.Y = latitude, degrees): the frame
// origin is the bounds center.
func FrameFor(bounds geom.Rect) Frame {
	c := bounds.Center()
	return Frame{Lat0: c.Y, Lon0: c.X}
}

// ToWorking projects a raw (lon, lat) degree point into the working frame
// (meters east, meters north of the frame origin).
func (f Frame) ToWorking(p geom.Point) geom.Point {
	return geom.Point{
		X: EarthRadiusMeters * (p.X - f.Lon0) * degToRad * math.Cos(f.Lat0*degToRad),
		Y: EarthRadiusMeters * (p.Y - f.Lat0) * degToRad,
	}
}

// FromWorking inverts ToWorking: working-frame meters back to (lon, lat)
// degrees.
func (f Frame) FromWorking(p geom.Point) geom.Point {
	return geom.Point{
		X: f.Lon0 + p.X/(EarthRadiusMeters*degToRad*math.Cos(f.Lat0*degToRad)),
		Y: f.Lat0 + p.Y/(EarthRadiusMeters*degToRad),
	}
}

// ProjectTrajectory returns a copy of pts projected into the working frame.
func (f Frame) ProjectTrajectory(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = f.ToWorking(p)
	}
	return out
}

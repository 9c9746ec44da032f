package synth

// Generators for the geometry-layer scenarios: timed corridor traffic for
// the spatiotemporal examples and tests, and lat/lon GPS tracks for the
// geodesic ones. Deterministic given the seed, like everything here.

import (
	"math/rand"

	"repro/internal/geom"
)

// RushHours generates trajectories carrying Times along ONE spatial corridor in two
// temporally disjoint waves ("morning" and "evening" traffic): wave w
// departs at w*waveGap, vehicles headway seconds apart, points dt seconds
// apart. Spatially the waves are indistinguishable — planar TRACLUS finds
// one cluster — but with a temporal weight large enough that
// wT·waveGap > eps the spatiotemporal distance separates them into two.
// IDs are 0..2*numPerWave-1; wave w owns ids w*numPerWave..(w+1)*numPerWave-1.
func RushHours(numPerWave, pointsPer int, jitter float64, seed int64, headway, dt, waveGap float64) []geom.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	a, b := geom.Pt(100, 300), geom.Pt(900, 300)
	var trs []geom.Trajectory
	for w := 0; w < 2; w++ {
		for v := 0; v < numPerWave; v++ {
			start := a.Add(geom.Pt(rng.NormFloat64()*jitter*2, rng.NormFloat64()*jitter*2))
			end := b.Add(geom.Pt(rng.NormFloat64()*jitter*2, rng.NormFloat64()*jitter*2))
			t0 := float64(w)*waveGap + float64(v)*headway
			pts := make([]geom.Point, 0, pointsPer)
			times := make([]float64, 0, pointsPer)
			for s := 0; s < pointsPer; s++ {
				p := start.Lerp(end, float64(s)/float64(pointsPer-1))
				pts = append(pts, geom.Pt(p.X+rng.NormFloat64()*jitter, p.Y+rng.NormFloat64()*jitter))
				times = append(times, t0+float64(s)*dt)
			}
			trs = append(trs, geom.Trajectory{
				ID: w*numPerWave + v, Label: "rush", Weight: 1, Points: pts, Times: times,
			})
		}
	}
	return trs
}

// TimedCorridorScene attaches Times to CorridorScene: every trajectory
// departs at its index*headway and samples points dt apart. It keeps the
// spatial geometry bit-identical to CorridorScene with the same arguments,
// which the wT=0 equivalence tests rely on.
func TimedCorridorScene(k, numPerCorridor, pointsPer int, jitter float64, seed int64, headway, dt float64) []geom.Trajectory {
	trs := CorridorScene(k, numPerCorridor, pointsPer, jitter, seed)
	for i := range trs {
		trs[i].Times = make([]float64, len(trs[i].Points))
		for s := range trs[i].Times {
			trs[i].Times[s] = float64(i)*headway + float64(s)*dt
		}
	}
	return trs
}

// GPSTracks generates lat/lon commuter tracks (X=longitude, Y=latitude, in
// degrees) along k corridors radiating from a common origin — the geodesic
// example's data. Corridors are a few kilometres long, so planar treatment
// of raw degrees would distort east–west distances by cos(latitude); the
// geodesic geometry's working frame corrects that.
func GPSTracks(k, numPerCorridor, pointsPer int, seed int64) []geom.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	const (
		lat0, lon0 = 47.6062, -122.3321 // a mid-latitude city center
		spanDeg    = 0.05               // ≈5.5 km north–south
		jitterDeg  = 0.0004             // ≈45 m
	)
	var trs []geom.Trajectory
	id := 0
	for c := 0; c < k; c++ {
		// Spread corridor headings over a half-circle so east–west and
		// north–south legs both occur, from origins far enough apart that
		// the corridors stay distinct.
		dir := geom.Pt(1, 0).Rotate(3.14159 * float64(c) / float64(k))
		a := geom.Pt(lon0+0.06*float64(c), lat0-0.04*float64(c))
		b := a.Add(dir.Scale(spanDeg))
		for t := 0; t < numPerCorridor; t++ {
			pts := make([]geom.Point, 0, pointsPer)
			for s := 0; s < pointsPer; s++ {
				p := a.Lerp(b, float64(s)/float64(pointsPer-1))
				pts = append(pts, geom.Pt(
					p.X+rng.NormFloat64()*jitterDeg,
					p.Y+rng.NormFloat64()*jitterDeg,
				))
			}
			trs = append(trs, geom.Trajectory{ID: id, Label: "gps", Weight: 1, Points: pts})
			id++
		}
	}
	return trs
}

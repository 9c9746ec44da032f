package traclus_test

// The geometry layer's two headline contracts, pinned through the public
// API:
//
//  1. Planar geometry is a no-op: a run under an explicit PlanarGeometry()
//     is bit-identical (fingerprints + DistCalls) to the default path
//     on every backend at every worker count.
//  2. wT = 0 spatiotemporal reduces exactly to planar — the paper's own
//     stated property of the temporal extension: a wT=0 Run over
//     trajectories that carry Times equals a planar Run over the same
//     points, down to the distance-call budget.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/synth"

	traclus "repro"
)

// timedWorkload attaches monotone Times to the fixed hurricane workload:
// trajectory i departs at i·1000, fixes 6 h apart. The points are
// bit-identical to equivalenceWorkload(t, tracks).
func timedWorkload(t *testing.T, tracks int) []traclus.Trajectory {
	t.Helper()
	trs := equivalenceWorkload(t, tracks)
	for i := range trs {
		trs[i].Times = make([]float64, len(trs[i].Points))
		for s := range trs[i].Times {
			trs[i].Times[s] = float64(i)*1000 + float64(s)*6
		}
	}
	return trs
}

// TestPlanarGeometryExplicitNoOp: threading the geometry through every
// layer must not move a single bit on the planar path — explicit planar
// equals the zero-value default, per backend, per worker count.
func TestPlanarGeometryExplicitNoOp(t *testing.T) {
	trs := equivalenceWorkload(t, 120)
	for _, kind := range []traclus.IndexBackend{traclus.GridIndexBackend(), traclus.RTreeIndexBackend(), traclus.BruteIndexBackend()} {
		for _, workers := range []int{1, 2, 4, 0} {
			cfg := traclus.Config{
				Eps: 30, MinLns: 6,
				CostAdvantage:    15,
				MinSegmentLength: 40,
				Index:            kind,
				Workers:          workers,
			}
			def, err := run(trs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Geometry = traclus.PlanarGeometry()
			exp, err := run(trs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d, e := def.DistCalls(), exp.DistCalls(); d != e {
				t.Errorf("index=%v workers=%d: DistCalls %d (default) vs %d (explicit planar)", kind.Name(), workers, d, e)
			}
			if d, e := resultFingerprint(def), resultFingerprint(exp); d != e {
				t.Errorf("index=%v workers=%d: fingerprint %s (default) vs %s (explicit planar)", kind.Name(), workers, d, e)
			}
		}
	}
}

// TestTemporalWeightZeroReducesToPlanar: a wT=0 Run over trajectories
// that carry Times must equal a planar Run over the same points —
// clusters, representatives, Removed, and the exact DistCalls budget — on
// every backend.
func TestTemporalWeightZeroReducesToPlanar(t *testing.T) {
	timed := timedWorkload(t, 120)
	spatial := make([]traclus.Trajectory, len(timed))
	for i, tr := range timed {
		tr.Times = nil
		spatial[i] = tr
	}
	ctx := context.Background()
	for _, kind := range []traclus.IndexBackend{traclus.GridIndexBackend(), traclus.RTreeIndexBackend(), traclus.BruteIndexBackend()} {
		for _, workers := range []int{1, 0} {
			cfg := traclus.Config{
				Eps: 30, MinLns: 6,
				CostAdvantage:    15,
				MinSegmentLength: 40,
				Index:            kind,
				Workers:          workers,
			}
			planar, err := traclus.New(traclus.WithConfig(cfg)).Run(ctx, spatial)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Geometry = traclus.SpatiotemporalGeometry(0)
			st, err := traclus.New(traclus.WithConfig(cfg)).Run(ctx, timed)
			if err != nil {
				t.Fatal(err)
			}
			label := func() string { return kind.Name() }
			if p, s := planar.DistCalls(), st.DistCalls(); p != s {
				t.Errorf("index=%s workers=%d: DistCalls %d (planar) vs %d (wT=0)", label(), workers, p, s)
			}
			if p, s := planar.RemovedClusters, st.RemovedClusters; p != s {
				t.Errorf("index=%s workers=%d: Removed %d (planar) vs %d (wT=0)", label(), workers, p, s)
			}
			if p, s := resultFingerprint(planar), resultFingerprint(st); p != s {
				t.Errorf("index=%s workers=%d: fingerprint %s (planar) vs %s (wT=0)", label(), workers, p, s)
			}
			// The timed run additionally reports per-cluster windows.
			if len(st.ClusterWindows()) != len(st.Clusters) {
				t.Errorf("index=%s workers=%d: %d windows for %d clusters", label(), workers, len(st.ClusterWindows()), len(st.Clusters))
			}
		}
	}
}

// TestSpatiotemporalSeparatesWaves: the motivating scenario — one road,
// two temporally disjoint waves. Planar (wT=0) sees the road; a temporal
// weight that makes wT·gap dwarf eps splits the waves.
func TestSpatiotemporalSeparatesWaves(t *testing.T) {
	trs := synth.RushHours(10, 20, 3, 5, 60, 45, 10*3600)
	cfg := traclus.Config{Eps: 25, MinLns: 5, Geometry: traclus.SpatiotemporalGeometry(0)}
	ctx := context.Background()

	plain, err := traclus.New(traclus.WithConfig(cfg)).Run(ctx, trs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Clusters) != 1 {
		t.Fatalf("wT=0: %d clusters, want the 1 road", len(plain.Clusters))
	}
	cfg.Geometry = traclus.SpatiotemporalGeometry(0.01)
	timed, err := traclus.New(traclus.WithConfig(cfg)).Run(ctx, trs)
	if err != nil {
		t.Fatal(err)
	}
	if len(timed.Clusters) != 2 {
		t.Fatalf("wT=0.01: %d clusters, want the 2 waves", len(timed.Clusters))
	}
	w0, w1 := timed.ClusterWindows()[0], timed.ClusterWindows()[1]
	if w0.Gap(w1) <= 0 {
		t.Errorf("wave windows overlap: %+v and %+v", w0, w1)
	}
}

// TestGeodesicRun: lat/lon input projects into the meter frame, clusters
// there, and the resolved frame rides the result for unprojection.
func TestGeodesicRun(t *testing.T) {
	trs := synth.GPSTracks(3, 8, 25, 7)
	res, err := traclus.New(traclus.WithConfig(traclus.Config{
		Eps: 150, MinLns: 5, MinSegmentLength: 100, Geometry: traclus.GeodesicGeometry(),
	})).Run(context.Background(), trs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("%d clusters, want 3 corridors", len(res.Clusters))
	}
	frame := res.Geometry().Frame
	if frame == nil {
		t.Fatal("geodesic result carries no frame")
	}
	// Representatives are in the working frame; unprojected they must land
	// inside the data's lat/lon envelope.
	for ci, c := range res.Clusters {
		for _, p := range c.Representative {
			ll := frame.FromWorking(p)
			if ll.X < -123 || ll.X > -122 || ll.Y < 47 || ll.Y > 48 {
				t.Fatalf("cluster %d representative unprojects to %.4f,%.4f — outside the data envelope", ci, ll.Y, ll.X)
			}
		}
	}
}

// TestGeometryIngestionGuards: trajectories carry Times exactly under the
// spatiotemporal geometry — Run without them under it, or with them under
// geodesic, is a typed error, not silently wrong.
func TestGeometryIngestionGuards(t *testing.T) {
	ctx := context.Background()
	_, err := traclus.New(traclus.WithConfig(traclus.Config{
		Eps: 25, MinLns: 5, Geometry: traclus.SpatiotemporalGeometry(0.5),
	})).Run(ctx, equivalenceWorkload(t, 4))
	var cfgErr *traclus.ConfigError
	if !errors.As(err, &cfgErr) {
		t.Fatalf("Run under spatiotemporal geometry: %v, want *ConfigError", err)
	}
	_, err = traclus.New(traclus.WithConfig(traclus.Config{
		Eps: 25, MinLns: 5, Geometry: traclus.GeodesicGeometry(),
	})).Run(ctx, timedWorkload(t, 4))
	if !errors.As(err, &cfgErr) {
		t.Fatalf("Run with Times under geodesic geometry: %v, want *ConfigError", err)
	}
	if _, err := traclus.ParseGeometry("hyperbolic"); !errors.As(err, &cfgErr) {
		t.Fatalf("ParseGeometry(hyperbolic): %v, want *ConfigError", err)
	}
}

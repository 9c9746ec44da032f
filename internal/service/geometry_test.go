package service

// Snapshot round-trips under the non-planar geometries: a spatiotemporal
// model (geometry kind, wT, and per-cluster windows) and a geodesic model
// (the resolved projection frame) must restore from their snapshots and
// classify bit-identically to the in-memory originals — the same identity
// contract persist_test.go pins for planar models.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	traclus "repro"
	"repro/internal/synth"
)

func timedTrainingSet() []traclus.Trajectory {
	// Spatial twin of trainingSet(); 60 s headway keeps the windows
	// overlapping enough that the corridors still cluster at Eps=30.
	return synth.TimedCorridorScene(2, 10, 24, 4, 11, 60, 10)
}

func timedProbeSet() []traclus.Trajectory {
	return synth.TimedCorridorScene(2, 6, 20, 4, 17, 60, 10)
}

func sameAssignments(t *testing.T, label string, want, got []Assignment) {
	t.Helper()
	for i := range want {
		if got[i].Cluster != want[i].Cluster ||
			math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) ||
			got[i].Err != want[i].Err {
			t.Fatalf("%s probe %d: loaded model classified (%d, %x, %q), original (%d, %x, %q)",
				label, i,
				got[i].Cluster, math.Float64bits(got[i].Distance), got[i].Err,
				want[i].Cluster, math.Float64bits(want[i].Distance), want[i].Err)
		}
	}
}

// TestTimedSnapshotClassifyIdentity: a spatiotemporal Build → snapshot →
// restore → ClassifyBatch over trajectories that carry Times is
// bit-identical across backends and worker counts, and the restored summary
// still says spatiotemporal.
func TestTimedSnapshotClassifyIdentity(t *testing.T) {
	probes := timedProbeSet()
	for _, kind := range []traclus.IndexBackend{traclus.GridIndexBackend(), traclus.RTreeIndexBackend(), traclus.BruteIndexBackend()} {
		cfg := buildConfig()
		cfg.Index = kind
		cfg.Geometry = traclus.SpatiotemporalGeometry(0.02)
		m, err := BuildCtx(context.Background(), "st-identity-"+kind.Name(), timedTrainingSet(), cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s := m.Summary(); s.Geometry != "spatiotemporal" || s.TemporalWeight != 0.02 {
			t.Fatalf("%v: built summary geometry %q wt %v", kind.Name(), s.Geometry, s.TemporalWeight)
		}
		data, err := m.EncodeSnapshot()
		if err != nil {
			t.Fatalf("%v: encode: %v", kind.Name(), err)
		}
		loaded, err := DecodeModel(data)
		if err != nil {
			t.Fatalf("%v: decode: %v", kind.Name(), err)
		}
		if s := loaded.Summary(); s.Geometry != "spatiotemporal" || s.TemporalWeight != 0.02 {
			t.Fatalf("%v: loaded summary geometry %q wt %v", kind.Name(), s.Geometry, s.TemporalWeight)
		}
		// Classifying a trajectory without Times against a spatiotemporal
		// model stays a typed error after the round trip.
		untimed := probes[0]
		untimed.Times = nil
		if _, _, err := loaded.Classify(untimed); err != traclus.ErrTimedModel {
			t.Fatalf("%v: Classify on restored timed model: %v, want ErrTimedModel", kind.Name(), err)
		}
		for _, workers := range []int{1, 2, 4, 0} {
			want := m.ClassifyBatch(context.Background(), probes, workers)
			got := loaded.ClassifyBatch(context.Background(), probes, workers)
			sameAssignments(t, kind.Name(), want, got)
		}
		// Re-export returns the retained bytes, same as the planar contract.
		re, err := loaded.EncodeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if string(re) != string(data) {
			t.Fatalf("%v: re-export differs: %d vs %d bytes", kind.Name(), len(re), len(data))
		}
	}
}

// TestGeodesicSnapshotClassifyIdentity: a geodesic model snapshots its
// resolved frame, and the restored model projects lat/lon probes through
// that exact frame — classification is bit-identical.
func TestGeodesicSnapshotClassifyIdentity(t *testing.T) {
	cfg := traclus.Config{Eps: 150, MinLns: 5, MinSegmentLength: 100}
	cfg.Geometry = traclus.GeodesicGeometry()
	m, err := BuildCtx(context.Background(), "gps-identity", synth.GPSTracks(3, 8, 25, 7), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Summary().Geometry != "geodesic" {
		t.Fatalf("summary geometry %q", m.Summary().Geometry)
	}
	if m.Config().Geometry.Frame == nil {
		t.Fatal("built geodesic model carries no resolved frame")
	}
	data, err := m.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	gf, lf := m.Config().Geometry.Frame, loaded.Config().Geometry.Frame
	if lf == nil || *lf != *gf {
		t.Fatalf("frame not persisted: built %+v, loaded %+v", gf, lf)
	}
	// Probes in raw lat/lon degrees — a different seed than training.
	probes := synth.GPSTracks(3, 4, 18, 23)
	for _, workers := range []int{1, 2, 4, 0} {
		want := m.ClassifyBatch(context.Background(), probes, workers)
		got := loaded.ClassifyBatch(context.Background(), probes, workers)
		sameAssignments(t, "geodesic", want, got)
		for i := range want {
			if want[i].Err == "" && want[i].Cluster < 0 {
				t.Fatalf("probe %d fell to noise; scene no longer exercises classification", i)
			}
		}
	}
	// Classifying a trajectory that carries Times against a geodesic model
	// is a clear error.
	if _, _, err := loaded.Classify(timedProbeSet()[0]); err == nil ||
		!strings.Contains(err.Error(), "geodesic") {
		t.Fatalf("Classify with Times on geodesic model: %v", err)
	}
}

// TestSpatiotemporalCutsUseModelDistance: sweeps and cuts on a
// spatiotemporal model run under the model's own distance, the wT·gap term
// included. The two rush-hour waves share one corridor, so a dendrogram
// built under the planar distance merges them; under the model's distance
// they stay apart. At the build and after each of three appends, ClustersAt
// at the model's ε finds the epoch's clusters and noise, and the sweep
// point there reads the Result's QMeasure bit for bit.
func TestSpatiotemporalCutsUseModelDistance(t *testing.T) {
	ctx := context.Background()
	cfg := buildConfig()
	cfg.Geometry = traclus.SpatiotemporalGeometry(0.05)
	m, err := BuildCtx(context.Background(), "rush", synth.RushHours(12, 24, 4, 3, 30, 10, 5000), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Summary().Clusters; got != 2 {
		t.Fatalf("the build found %d clusters, want the two waves", got)
	}
	extra := synth.RushHours(2, 24, 4, 9, 30, 10, 5000)
	for i := range extra {
		extra[i].ID += 1000
	}
	for epoch := 0; ; epoch++ {
		sum, res := m.Summary(), m.Result()
		cut, err := m.ClustersAt(ctx, sum.Eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(cut.Clusters) != sum.Clusters || cut.NoiseSegments != sum.NoiseSegments {
			t.Errorf("epoch %d: ClustersAt(%g) found %d clusters and %d noise segments, the model %d and %d",
				epoch, sum.Eps, len(cut.Clusters), cut.NoiseSegments, sum.Clusters, sum.NoiseSegments)
		}
		pts, err := m.SweepQuality(ctx, sum.Eps, 2*sum.Eps, 2)
		if err != nil {
			t.Fatal(err)
		}
		if q := res.QMeasure(); math.Float64bits(pts[0].QMeasure) != math.Float64bits(q) {
			t.Errorf("epoch %d: sweep QMeasure at ε %g is %v, the Result's %v", epoch, sum.Eps, pts[0].QMeasure, q)
		}
		if epoch == 3 {
			break
		}
		if m, err = m.Append(ctx, extra[epoch:epoch+1]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoredSpatiotemporalSweepRange: a snapshot keeps no per-item time
// intervals, so a restored spatiotemporal model answers sweeps within its
// persisted dendrogram's range exactly as the built model does, and beyond
// it returns an error wrapping ErrNoDendrogram instead of rebuilding under
// the planar distance.
func TestRestoredSpatiotemporalSweepRange(t *testing.T) {
	ctx := context.Background()
	cfg := buildConfig()
	cfg.Geometry = traclus.SpatiotemporalGeometry(0.05)
	m, err := BuildCtx(context.Background(), "rush-restored", synth.RushHours(12, 24, 4, 3, 30, 10, 5000), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DendrogramAt(ctx, 45); err != nil {
		t.Fatal(err)
	}
	data, err := m.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.SweepQuality(ctx, 15, 45, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.SweepQuality(ctx, 15, 45, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("restored sweep differs:\n built    %+v\n restored %+v", want, got)
	}
	if _, err := restored.SweepQuality(ctx, 15, 60, 4); !errors.Is(err, ErrNoDendrogram) {
		t.Errorf("sweep beyond the persisted range: %v, want ErrNoDendrogram", err)
	}
	if _, err := restored.ClustersAt(ctx, 50); !errors.Is(err, ErrNoDendrogram) {
		t.Errorf("cut beyond the persisted range: %v, want ErrNoDendrogram", err)
	}
}

package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	traclus "repro"
	"repro/internal/synth"
)

// TestClustersAtMatchesBuild pins the serving identity: cutting the model
// at its own ε reproduces the build's clustering exactly — including the
// representative trajectories — even though the dendrogram is built
// lazily, after the fact, from the model's retained items.
func TestClustersAtMatchesBuild(t *testing.T) {
	m, err := BuildCtx(context.Background(), "fixed", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dendrogram() != nil {
		t.Fatal("fixed-parameter build carries a dendrogram before any sweep")
	}
	cut, err := m.ClustersAt(context.Background(), m.Summary().Eps)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	if len(cut.Clusters) != len(res.Clusters) {
		t.Fatalf("cut found %d clusters, build found %d", len(cut.Clusters), len(res.Clusters))
	}
	for ci, c := range cut.Clusters {
		want := res.Clusters[ci]
		if !reflect.DeepEqual(c.Representative, want.Representative) {
			t.Errorf("cluster %d: representative differs", ci)
		}
		if !reflect.DeepEqual(c.Trajectories, want.Trajectories) {
			t.Errorf("cluster %d: trajectory set differs", ci)
		}
		if c.Segments != len(want.Segments) {
			t.Errorf("cluster %d: %d segments, want %d", ci, c.Segments, len(want.Segments))
		}
	}
	if cut.NoiseSegments != m.Summary().NoiseSegments || cut.RemovedClusters != m.Summary().RemovedClusters {
		t.Errorf("cut noise/removed = %d/%d, summary %d/%d",
			cut.NoiseSegments, cut.RemovedClusters, m.Summary().NoiseSegments, m.Summary().RemovedClusters)
	}
}

// TestDendrogramLazyGrowth: sweeps beyond the current range rebuild wider;
// narrower queries reuse the existing structure.
func TestDendrogramLazyGrowth(t *testing.T) {
	m, err := BuildCtx(context.Background(), "growing", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ClustersAt(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	d1 := m.Dendrogram()
	if d1 == nil || d1.MaxEps() < 10 {
		t.Fatalf("after eps=10 cut: dendrogram %v", d1)
	}
	if _, err := m.ClustersAt(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if m.Dendrogram() != d1 {
		t.Error("narrower query rebuilt the dendrogram")
	}
	if _, err := m.ClustersAt(context.Background(), d1.MaxEps()*2); err != nil {
		t.Fatal(err)
	}
	if d2 := m.Dendrogram(); d2 == d1 || d2.MaxEps() < d1.MaxEps()*2 {
		t.Error("wider query did not grow the dendrogram")
	}
}

// TestSnapshotCarriesDendro: an estimated build holds the dendrogram its
// estimation phase produced, exports it in the v2 snapshot, and the
// restored model answers the identical sweep without any rebuild — even
// though its Result() is nil.
func TestSnapshotCarriesDendro(t *testing.T) {
	m, err := BuildCtx(context.Background(), "auto", trainingSet(), buildConfig(),
		&EstimateRange{Lo: 5, Hi: 60}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dendrogram() == nil {
		t.Fatal("estimated build carries no dendrogram")
	}
	data, err := m.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Result() != nil {
		t.Fatal("restored model has a Result")
	}
	d2 := m2.Dendrogram()
	if d2 == nil {
		t.Fatal("restored model carries no dendrogram")
	}
	lo, hi := 5.0, d2.MaxEps()
	want, err := m.SweepQuality(context.Background(), lo, hi, 9)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.SweepQuality(context.Background(), lo, hi, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("restored sweep differs:\n built %+v\nrestored %+v", want, got)
	}
	a, err := m.ClustersAt(context.Background(), hi/2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m2.ClustersAt(context.Background(), hi/2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("restored cut differs from the built model's")
	}
}

// TestSweepNoDendrogram: a model restored from a dendrogram-less snapshot
// (the v1 situation: classifier geometry only, no training segments)
// answers sweep queries with ErrNoDendrogram.
func TestSweepNoDendrogram(t *testing.T) {
	m, err := BuildCtx(context.Background(), "plain", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Export before any sweep: the memoized snapshot has no dendro section,
	// like a v1 file.
	data, err := m.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Dendrogram() != nil {
		t.Fatal("dendrogram-less snapshot restored with a dendrogram")
	}
	if _, err := m2.SweepQuality(context.Background(), 5, 50, 4); !errors.Is(err, ErrNoDendrogram) {
		t.Errorf("SweepQuality error %v, want ErrNoDendrogram", err)
	}
	if _, err := m2.ClustersAt(context.Background(), 20); !errors.Is(err, ErrNoDendrogram) {
		t.Errorf("ClustersAt error %v, want ErrNoDendrogram", err)
	}
}

func TestSweepValidation(t *testing.T) {
	m, err := BuildCtx(context.Background(), "validated", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name        string
		lo, hi      float64
		steps       int
		wantCfgFail bool
	}{
		{"lo equals hi", 10, 10, 4, true},
		{"zero lo", 0, 10, 4, true},
		{"negative hi", 5, -1, 4, true},
		{"one step", 5, 50, 1, true},
		{"steps above cap", 5, 50, 4097, true},
		{"valid", 5, 50, 4, false},
	} {
		_, err := m.SweepQuality(ctx, tc.lo, tc.hi, tc.steps)
		if tc.wantCfgFail {
			var ce *traclus.ConfigError
			if !errors.As(err, &ce) {
				t.Errorf("%s: error %v, want *traclus.ConfigError", tc.name, err)
			}
		} else if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
	}
}

// TestSummaryQMeasureIsResultQMeasure: the summary reports the result's
// own QMeasure bit for bit, after a build and after an append, and the
// sweep point at the model's own ε reads the same Formula 11 terms.
func TestSummaryQMeasureIsResultQMeasure(t *testing.T) {
	ctx := context.Background()
	cfg := synth.DefaultHurricaneConfig()
	cfg.NumTracks, cfg.Seed = 401, 3
	trs := synth.Hurricanes(cfg)
	m, err := BuildCtx(context.Background(), "q", trs[:400], buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	next, err := m.Append(ctx, trs[400:])
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range []*Model{m, next} {
		sum, res := mm.Summary(), mm.Result()
		if math.Float64bits(sum.QMeasure) != math.Float64bits(res.QMeasure()) {
			t.Errorf("epoch %d: summary QMeasure %v, Result().QMeasure() %v", sum.Epoch, sum.QMeasure, res.QMeasure())
		}
		// k = 0 of a sweep sits exactly on lo.
		pts, err := mm.SweepQuality(ctx, sum.Eps, 2*sum.Eps, 2)
		if err != nil {
			t.Fatal(err)
		}
		p := pts[0]
		var total float64
		for _, st := range sum.ClusterStats {
			total += st.SSE
		}
		if p.Eps != sum.Eps || p.Clusters != sum.Clusters ||
			math.Float64bits(p.QMeasure) != math.Float64bits(sum.QMeasure) ||
			math.Float64bits(p.TotalSSE) != math.Float64bits(total) ||
			math.Float64bits(p.NoisePenalty) != math.Float64bits(res.NoisePenalty()) {
			t.Errorf("epoch %d: sweep point %+v, summary QMeasure %v, Σ SSE %v, NoisePenalty %v",
				sum.Epoch, p, sum.QMeasure, total, res.NoisePenalty())
		}
	}
}

// BenchmarkSweepQuality times the daemon's default sweep — 16 steps over
// [ε/2, 2ε] — on a 400-track hurricane model whose dendrogram is already
// built, so only the cuts and the quality passes are timed. Every sweep is
// its lineage's first, with no earlier sweep to carry, so its steps chain.
// pairs/op is the number of pair distances its quality passes score.
func BenchmarkSweepQuality(b *testing.B) {
	cfg := synth.DefaultHurricaneConfig()
	cfg.NumTracks = 400
	m, err := BuildCtx(context.Background(), "bench-sweep", synth.Hurricanes(cfg), buildConfig(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	eps := m.Summary().Eps
	lo, hi, steps := eps/2, 2*eps, 16
	if _, err := m.DendrogramAt(ctx, hi); err != nil {
		b.Fatal(err)
	}
	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.lin.sweep.Store(nil)
		if _, pairs, err = m.sweep(ctx, lo, hi, steps); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pairs), "pairs/op")
}

// TestReadsMatchLibraryMatrix is the service ≡ library matrix for reads:
// for every geometry × index backend × epoch (the build, then three
// one-trajectory appends), ClustersAt at the model's ε finds exactly the
// epoch Result's clusters and noise, and the sweep point at ε reads
// Result().QMeasure() bit for bit. Two lifecycle cells follow the build:
// the model restored from its snapshot (whose dendrogram the epoch-0 sweep
// widened to 2ε) answers both reads like the build, and after a sweep to 3ε
// a planar or geodesic restored model rebuilds its dendrogram and still
// does, while a spatiotemporal one, with no per-item spans to rebuild
// from, returns an error wrapping ErrNoDendrogram.
func TestReadsMatchLibraryMatrix(t *testing.T) {
	ctx := context.Background()
	reads := func(what string, m *Model, res *traclus.Result, eps float64) {
		cut, err := m.ClustersAt(ctx, eps)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(cut.Clusters) != len(res.Clusters) || cut.NoiseSegments != res.NoiseSegments {
			t.Errorf("%s: ClustersAt(%g) found %d clusters and %d noise segments, the Result %d and %d",
				what, eps, len(cut.Clusters), cut.NoiseSegments, len(res.Clusters), res.NoiseSegments)
		}
		pts, err := m.SweepQuality(ctx, eps, 2*eps, 2)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if q := res.QMeasure(); math.Float64bits(pts[0].QMeasure) != math.Float64bits(q) {
			t.Errorf("%s: sweep QMeasure at ε %g is %v, the Result's %v", what, eps, pts[0].QMeasure, q)
		}
	}
	hcfg := synth.DefaultHurricaneConfig()
	hcfg.NumTracks, hcfg.Seed = 103, 3
	planar := synth.Hurricanes(hcfg)
	rush := synth.RushHours(12, 24, 4, 3, 30, 10, 5000)
	for i, tr := range synth.RushHours(2, 24, 4, 9, 30, 10, 5000)[:3] {
		tr.ID = 1000 + i
		rush = append(rush, tr)
	}
	gps := synth.GPSTracks(3, 8, 25, 7)
	for i, tr := range synth.GPSTracks(3, 1, 25, 19) {
		tr.ID = 1000 + i
		gps = append(gps, tr)
	}
	geodesic := traclus.Config{Eps: 150, MinLns: 5, MinSegmentLength: 100, Geometry: traclus.GeodesicGeometry()}
	spatiotemporal := buildConfig()
	spatiotemporal.Geometry = traclus.SpatiotemporalGeometry(0.05)
	geos := []struct {
		name string
		cfg  traclus.Config
		trs  []traclus.Trajectory // the build, then three appended trajectories
	}{
		{"planar", buildConfig(), planar},
		{"spatiotemporal", spatiotemporal, rush},
		{"geodesic", geodesic, gps},
	}
	for _, g := range geos {
		for _, kind := range []traclus.IndexBackend{traclus.GridIndexBackend(), traclus.RTreeIndexBackend(), traclus.BruteIndexBackend()} {
			cfg := g.cfg
			cfg.Index = kind
			n := len(g.trs) - 3
			m, err := BuildCtx(context.Background(), g.name, g.trs[:n], cfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for epoch := 0; ; epoch++ {
				what := fmt.Sprintf("%s/%v/epoch %d", g.name, kind.Name(), epoch)
				eps, res := m.Summary().Eps, m.Result()
				reads(what, m, res, eps)
				if epoch == 0 {
					data, err := m.EncodeSnapshot()
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					restored, err := DecodeModel(data)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					reads(what+"/restored", restored, res, eps)
					_, err = restored.SweepQuality(ctx, eps, 3*eps, 2)
					if g.cfg.Geometry.Timed() {
						if !errors.Is(err, ErrNoDendrogram) {
							t.Errorf("%s/restored: sweep to 3ε: %v, want ErrNoDendrogram", what, err)
						}
					} else if err != nil {
						t.Fatalf("%s/restored: sweep to 3ε: %v", what, err)
					} else {
						reads(what+"/restored, swept to 3ε", restored, res, eps)
					}
				}
				if epoch == 3 {
					break
				}
				if m, err = m.Append(ctx, g.trs[n+epoch:n+epoch+1]); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			if len(m.Result().Clusters) == 0 {
				t.Errorf("%s/%v: no clusters; the scene exercises nothing", g.name, kind.Name())
			}
		}
	}
}

// TestSweepGridEndsOnHi: the last point of a sweep is hi itself, and no
// point exceeds it. For the range below, lo + (hi−lo)·9/9 rounds one ulp
// above hi, past the dendrogram the sweep builds to hi, so the sweep used
// to fail; so did 2.1% of the daemon's default ranges [ε/2, 2ε].
func TestSweepGridEndsOnHi(t *testing.T) {
	m, err := BuildCtx(context.Background(), "grid", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 13.817455711021298, 71.26576308408835
	pts, err := m.SweepQuality(context.Background(), lo, hi, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := pts[len(pts)-1].Eps; got != hi {
		t.Errorf("last point at %v, want hi %v", got, hi)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		eps := 5 + 55*rng.Float64()
		g := grid{lo: eps / 2, hi: 2 * eps, steps: 2 + rng.Intn(63)}
		prev := g.lo
		for k := 0; k < g.steps; k++ {
			e := g.eps(k)
			if e < prev || e > g.hi || k == 0 && e != g.lo || k == g.steps-1 && e != g.hi {
				t.Fatalf("grid %+v: point %d is %v after %v", g, k, e, prev)
			}
			prev = e
		}
	}
}

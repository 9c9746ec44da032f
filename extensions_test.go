package traclus_test

import (
	"math"
	"testing"

	traclus "repro"
)

func timedCorridor(n, idBase int, t0 float64) []traclus.Trajectory {
	var trs []traclus.Trajectory
	for i := 0; i < n; i++ {
		tr := traclus.Trajectory{ID: idBase + i, Weight: 1}
		for s := 0; s <= 20; s++ {
			tr.Points = append(tr.Points, traclus.Pt(100+30*float64(s), 300+float64(i)))
			tr.Times = append(tr.Times, t0+60*float64(s))
		}
		trs = append(trs, tr)
	}
	return trs
}

// spatiotemporal is the Config of a spatiotemporal run with weight wT.
func spatiotemporal(cfg traclus.Config, wt float64) traclus.Config {
	cfg.Geometry = traclus.SpatiotemporalGeometry(wt)
	return cfg
}

func TestRunTimedSeparatesByTime(t *testing.T) {
	var trs []traclus.Trajectory
	trs = append(trs, timedCorridor(3, 0, 0)...)
	trs = append(trs, timedCorridor(3, 3, 1e6)...)

	spatial, err := run(trs, spatiotemporal(traclus.Config{Eps: 25, MinLns: 3}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(spatial.Clusters) != 1 {
		t.Fatalf("wT=0 clusters = %d, want 1", len(spatial.Clusters))
	}

	timed, err := run(trs, spatiotemporal(traclus.Config{Eps: 25, MinLns: 3}, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if len(timed.Clusters) != 2 {
		t.Fatalf("wT>0 clusters = %d, want 2", len(timed.Clusters))
	}
	if w := timed.ClusterWindows(); w[0].Gap(w[1]) == 0 {
		t.Error("time windows overlap")
	}
}

func TestRunTimedValidation(t *testing.T) {
	if _, err := run(nil, spatiotemporal(traclus.Config{MinLns: 3}, 0)); err == nil {
		t.Error("Eps unset accepted")
	}
	if _, err := run(nil, spatiotemporal(traclus.Config{Eps: 10, MinLns: 3}, -1)); err == nil {
		t.Error("negative temporal weight accepted")
	}
}

func TestEmbedSegmentsFacade(t *testing.T) {
	segs := []traclus.Segment{
		{Start: traclus.Pt(0, 0), End: traclus.Pt(100, 0)},
		{Start: traclus.Pt(0, 10), End: traclus.Pt(100, 10)},
		{Start: traclus.Pt(0, 0), End: traclus.Pt(0, 100)},
		{Start: traclus.Pt(50, 50), End: traclus.Pt(150, 60)},
	}
	emb, err := traclus.EmbedSegments(segs, traclus.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Dims() <= 0 {
		t.Fatalf("Dims = %d", emb.Dims())
	}
	// Off-diagonal: embedded D² = dist + shift.
	for i := range segs {
		for j := range segs {
			want := 0.0
			if i != j {
				want = traclus.Distance(segs[i], segs[j]) + emb.Shift()
			}
			if got := emb.Distance2(i, j); math.Abs(got-want) > 1e-6*(1+want) {
				t.Errorf("D2(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	if len(emb.Coord(0)) != emb.Dims() {
		t.Error("coordinate length mismatch")
	}
	if _, err := traclus.EmbedSegments(nil, traclus.Config{}, 0); err == nil {
		t.Error("empty segment set accepted")
	}
}

package traclus_test

import (
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

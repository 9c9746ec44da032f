package traclus_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/synth"

	traclus "repro"
)

func corridorTrajectories() []traclus.Trajectory {
	return synth.CorridorScene(2, 10, 24, 4, 11)
}

// run clusters trs through the default pipeline under cfg.
func run(trs []traclus.Trajectory, cfg traclus.Config) (*traclus.Result, error) {
	return traclus.New(traclus.WithConfig(cfg)).Run(context.Background(), trs)
}

// estimate runs the Section 4.4 search over [lo, hi] under cfg.
func estimate(trs []traclus.Trajectory, lo, hi float64, cfg traclus.Config) (traclus.Estimate, error) {
	return traclus.New(traclus.WithConfig(cfg)).Estimate(context.Background(), trs, lo, hi)
}

func TestRunEndToEnd(t *testing.T) {
	res, err := run(corridorTrajectories(), traclus.Config{
		Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(res.Clusters))
	}
	if res.TotalSegments == 0 {
		t.Error("no segments")
	}
	for i, c := range res.Clusters {
		if len(c.Representative) < 2 {
			t.Errorf("cluster %d has no representative", i)
		}
		if len(c.Trajectories) < 6 {
			t.Errorf("cluster %d trajectory cardinality %d", i, len(c.Trajectories))
		}
	}
}

func TestRunValidation(t *testing.T) {
	trs := corridorTrajectories()
	if _, err := run(trs, traclus.Config{MinLns: 5}); err == nil {
		t.Error("Eps unset accepted")
	}
	if _, err := run(trs, traclus.Config{Eps: 30}); err == nil {
		t.Error("MinLns unset accepted")
	}
	bad := []traclus.Trajectory{traclus.NewTrajectory(0, []traclus.Point{traclus.Pt(0, 0)})}
	if _, err := run(bad, traclus.Config{Eps: 30, MinLns: 3}); err == nil {
		t.Error("invalid trajectory accepted")
	}
}

func TestZeroWeightsMeanDefaults(t *testing.T) {
	// Config{}.Weights zero-value must behave as w=1,1,1, not all-zero.
	res, err := run(corridorTrajectories(), traclus.Config{
		Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := run(corridorTrajectories(), traclus.Config{
		Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40,
		Weights: traclus.Weights{Perpendicular: 1, Parallel: 1, Angle: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != len(explicit.Clusters) {
		t.Errorf("zero-value weights differ from explicit defaults: %d vs %d",
			len(res.Clusters), len(explicit.Clusters))
	}
}

func TestPartitionFacade(t *testing.T) {
	tr := traclus.NewTrajectory(0, []traclus.Point{
		traclus.Pt(0, 0), traclus.Pt(100, 0), traclus.Pt(200, 0),
		traclus.Pt(200, 100), traclus.Pt(200, 200),
	})
	cps := traclus.Partition(tr, 0)
	if cps[0] != 0 || cps[len(cps)-1] != 4 {
		t.Errorf("Partition = %v", cps)
	}
	foundCorner := false
	for _, c := range cps {
		if c == 2 {
			foundCorner = true
		}
	}
	if !foundCorner {
		t.Errorf("corner not a characteristic point: %v", cps)
	}
	segs := traclus.PartitionSegments(tr, 0)
	if len(segs) != len(cps)-1 {
		t.Errorf("PartitionSegments = %d segments for %d characteristic points", len(segs), len(cps))
	}
}

func TestDistanceFacade(t *testing.T) {
	a := traclus.Segment{Start: traclus.Pt(0, 0), End: traclus.Pt(100, 0)}
	b := traclus.Segment{Start: traclus.Pt(0, 5), End: traclus.Pt(100, 5)}
	if got := traclus.Distance(a, b); math.Abs(got-5) > 1e-9 {
		t.Errorf("Distance = %v, want 5", got)
	}
	if traclus.Distance(a, a) != 0 {
		t.Error("self distance not zero")
	}
}

func TestEstimateParameters(t *testing.T) {
	est, err := estimate(corridorTrajectories(), 5, 60, traclus.Config{
		CostAdvantage: 15, MinSegmentLength: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Eps < 5 || est.Eps > 60 {
		t.Errorf("estimated eps = %v outside search range", est.Eps)
	}
	if est.MinLnsLo < 2 || est.MinLnsHi < est.MinLnsLo {
		t.Errorf("MinLns range %d..%d", est.MinLnsLo, est.MinLnsHi)
	}
	if _, err := estimate(nil, 5, 60, traclus.Config{}); err == nil {
		t.Error("empty input accepted")
	}
}

func TestQMeasureAccessor(t *testing.T) {
	res, err := run(corridorTrajectories(), traclus.Config{
		Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := res.QMeasure()
	if q < 0 || math.IsNaN(q) {
		t.Errorf("QMeasure = %v", q)
	}
	// A deliberately bad ε (tiny) should score worse on the same data.
	bad, err := run(corridorTrajectories(), traclus.Config{
		Eps: 2, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad.QMeasure() <= q {
		t.Errorf("tiny eps should have worse QMeasure: %v vs %v", bad.QMeasure(), q)
	}
}

func TestUndirectedOption(t *testing.T) {
	// Trajectories running opposite ways along one corridor: directed
	// clustering separates them, undirected merges them.
	var trs []traclus.Trajectory
	for i := 0; i < 8; i++ {
		pts := make([]traclus.Point, 21)
		for s := range pts {
			x := 100 + float64(s)*30
			pts[s] = traclus.Pt(x, 300+float64(i%4))
		}
		if i%2 == 1 {
			for l, r := 0, len(pts)-1; l < r; l, r = l+1, r-1 {
				pts[l], pts[r] = pts[r], pts[l]
			}
		}
		trs = append(trs, traclus.NewTrajectory(i, pts))
	}
	directed, err := run(trs, traclus.Config{Eps: 25, MinLns: 3, CostAdvantage: 5})
	if err != nil {
		t.Fatal(err)
	}
	undirected, err := run(trs, traclus.Config{Eps: 25, MinLns: 3, CostAdvantage: 5, Undirected: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(undirected.Clusters) >= len(directed.Clusters) && len(directed.Clusters) > 1 {
		t.Errorf("undirected (%d) should merge directed clusters (%d)",
			len(undirected.Clusters), len(directed.Clusters))
	}
}

func TestWeightedTrajectories(t *testing.T) {
	trs := synth.CorridorScene(1, 8, 24, 4, 13)
	// Full weights → 1 cluster.
	full, err := run(trs, traclus.Config{
		Eps: 30, MinLns: 6, MinTrajs: 2, CostAdvantage: 15, MinSegmentLength: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Clusters) != 1 {
		t.Fatalf("full-weight clusters = %d", len(full.Clusters))
	}
	// Down-weight all trajectories: weighted cardinality < MinLns.
	for i := range trs {
		trs[i].Weight = 0.2
	}
	light, err := run(trs, traclus.Config{
		Eps: 30, MinLns: 6, MinTrajs: 2, CostAdvantage: 15, MinSegmentLength: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(light.Clusters) != 0 {
		t.Errorf("down-weighted clusters = %d, want 0", len(light.Clusters))
	}
}

func TestIndexBackendsAgreeThroughFacade(t *testing.T) {
	trs := corridorTrajectories()
	var counts []int
	for _, backend := range []traclus.IndexBackend{traclus.BruteIndexBackend(), traclus.GridIndexBackend(), traclus.RTreeIndexBackend()} {
		res, err := run(trs, traclus.Config{
			Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40, Index: backend,
		})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, len(res.Clusters))
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("index backends disagree: %v", counts)
	}
}

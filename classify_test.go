package traclus_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/synth"

	traclus "repro"
)

func classifyConfig() traclus.Config {
	return traclus.Config{Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40}
}

// ownCluster returns the index of the cluster whose PTR contains the
// trajectory id, or -1.
func ownCluster(res *traclus.Result, id int) int {
	for ci, c := range res.Clusters {
		for _, t := range c.Trajectories {
			if t == id {
				return ci
			}
		}
	}
	return -1
}

// TestClassifyTrainingSet pins the core serving guarantee: every training
// trajectory that participates in a cluster classifies back into that
// cluster.
func TestClassifyTrainingSet(t *testing.T) {
	trs := corridorTrajectories()
	res, err := run(trs, classifyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(res.Clusters))
	}
	cls, err := traclus.NewClassifier(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		want := ownCluster(res, tr.ID)
		if want == -1 {
			continue // pure-noise trajectory: no "own" cluster to demand
		}
		got, d, err := cls.Classify(tr)
		if err != nil {
			t.Fatalf("classify trajectory %d: %v", tr.ID, err)
		}
		if got != want {
			t.Errorf("trajectory %d classified into cluster %d, want its own cluster %d", tr.ID, got, want)
		}
		if math.IsNaN(d) || d < 0 {
			t.Errorf("trajectory %d distance = %v", tr.ID, d)
		}
	}
}

// TestClassifyUnseenTrajectory checks that a new trajectory running along a
// corridor lands in that corridor's cluster with a small distance, while a
// far-away trajectory reports a much larger distance.
func TestClassifyUnseenTrajectory(t *testing.T) {
	trs := corridorTrajectories()
	res, err := run(trs, classifyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// An unseen trajectory shadowing training trajectory 0's corridor.
	near := trs[0].Translate(traclus.Pt(3, 3))
	near.ID = 10_000
	wantCluster := ownCluster(res, trs[0].ID)
	got, dNear, err := res.Classify(near)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantCluster {
		t.Errorf("shadow trajectory classified into %d, want %d", got, wantCluster)
	}
	far := trs[0].Translate(traclus.Pt(4000, 4000))
	far.ID = 10_001
	_, dFar, err := res.Classify(far)
	if err != nil {
		t.Fatal(err)
	}
	if dFar <= dNear {
		t.Errorf("far distance %v not greater than near distance %v", dFar, dNear)
	}
}

// TestClassifyIndexEquivalence: the assignment must not depend on the
// neighborhood index strategy the model was built with.
func TestClassifyIndexEquivalence(t *testing.T) {
	trs := corridorTrajectories()
	queries := synth.CorridorScene(2, 4, 24, 6, 99)
	var baseline []int
	for _, kind := range []traclus.IndexBackend{traclus.GridIndexBackend(), traclus.RTreeIndexBackend(), traclus.BruteIndexBackend()} {
		cfg := classifyConfig()
		cfg.Index = kind
		res, err := run(trs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, q := range queries {
			cl, _, err := res.Classify(q)
			if err != nil {
				t.Fatalf("index %v: %v", kind.Name(), err)
			}
			got = append(got, cl)
		}
		if baseline == nil {
			baseline = got
			continue
		}
		for i := range got {
			if got[i] != baseline[i] {
				t.Errorf("index %v: query %d → cluster %d, grid → %d", kind.Name(), i, got[i], baseline[i])
			}
		}
	}
}

// TestClassifierSnapshotBackends: for every built-in backend set through
// Config.Index, the snapshot names the backend and NewClassifierFromSnapshot
// rebuilds a classifier that assigns every held-out query to the same
// cluster, with the same distance bits.
func TestClassifierSnapshotBackends(t *testing.T) {
	trs := corridorTrajectories()
	queries := synth.CorridorScene(2, 4, 24, 6, 99)
	for _, backend := range []traclus.IndexBackend{traclus.GridIndexBackend(), traclus.RTreeIndexBackend(), traclus.BruteIndexBackend()} {
		cfg := classifyConfig()
		cfg.Index = backend
		res, err := run(trs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cls, err := res.Classifier()
		if err != nil {
			t.Fatal(err)
		}
		snap := cls.Snapshot()
		if snap.Index != backend.Name() {
			t.Errorf("%s: snapshot names the backend %q", backend.Name(), snap.Index)
		}
		restored, err := traclus.NewClassifierFromSnapshot(snap)
		if err != nil {
			t.Fatalf("%s: NewClassifierFromSnapshot: %v", backend.Name(), err)
		}
		for i, q := range queries {
			wc, wd, werr := cls.Classify(q)
			gc, gd, gerr := restored.Classify(q)
			if gc != wc || math.Float64bits(gd) != math.Float64bits(wd) || (gerr == nil) != (werr == nil) {
				t.Errorf("%s: query %d restored to (%d, %x, %v), original (%d, %x, %v)",
					backend.Name(), i, gc, math.Float64bits(gd), gerr, wc, math.Float64bits(wd), werr)
			}
		}
	}
}

func TestClassifyErrors(t *testing.T) {
	res, err := run(corridorTrajectories(), classifyConfig())
	if err != nil {
		t.Fatal(err)
	}
	short := traclus.NewTrajectory(1, []traclus.Point{traclus.Pt(0, 0)})
	if _, _, err := res.Classify(short); err == nil {
		t.Error("one-point trajectory accepted")
	}

	// A clustering with no clusters cannot classify.
	sparse, err := run(corridorTrajectories()[:2], traclus.Config{Eps: 1, MinLns: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traclus.NewClassifier(sparse); !errors.Is(err, traclus.ErrNoClusters) {
		t.Errorf("NewClassifier on empty clustering: err = %v, want ErrNoClusters", err)
	}
	if _, _, err := sparse.Classify(corridorTrajectories()[0]); !errors.Is(err, traclus.ErrNoClusters) {
		t.Errorf("Classify on empty clustering: err = %v, want ErrNoClusters", err)
	}
}

// TestClassifyOverflowCoordinates pins the no-panic guarantee for finite
// but extreme coordinates: 1e200 passes Trajectory.Validate yet overflows
// the squared terms of the distance to +Inf, leaving no reference segment
// comparable. The classifier must return an error, not index votes[-1].
func TestClassifyOverflowCoordinates(t *testing.T) {
	res, err := run(corridorTrajectories(), classifyConfig())
	if err != nil {
		t.Fatal(err)
	}
	huge := traclus.NewTrajectory(77, []traclus.Point{
		traclus.Pt(1e200, 1e200), traclus.Pt(2e200, 1e200), traclus.Pt(3e200, 2e200),
	})
	if _, _, err := res.Classify(huge); err == nil {
		t.Error("overflowing trajectory classified without error")
	}
}

func TestClassifierConcurrent(t *testing.T) {
	trs := corridorTrajectories()
	res, err := run(trs, classifyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cls, err := traclus.NewClassifier(res)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for _, tr := range trs {
				if _, _, err := cls.Classify(tr); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestClassifyReusesScratch pins what a warm classifier allocates per
// Classify call: the query's partitions and the two per-cluster vote
// tallies. The partitioner's buffers (dedup points, kernel views,
// characteristic points) and the search cursor are reused from the
// classifier's pool.
func TestClassifyReusesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	trs := corridorTrajectories()
	res, err := run(trs, classifyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cls, err := res.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	tr := trs[0]
	if _, _, err := cls.Classify(tr); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { cls.Classify(tr) }); n > 3 {
		t.Errorf("Classify allocates %v times per call on a warm classifier, want at most 3", n)
	}
}

func TestClusterStats(t *testing.T) {
	res, err := run(corridorTrajectories(), classifyConfig())
	if err != nil {
		t.Fatal(err)
	}
	stats := res.ClusterStats()
	if len(stats) != len(res.Clusters) {
		t.Fatalf("stats for %d clusters, want %d", len(stats), len(res.Clusters))
	}
	for i, st := range stats {
		if st.Cluster != i {
			t.Errorf("stat %d: Cluster = %d", i, st.Cluster)
		}
		if st.Segments != len(res.Clusters[i].Segments) {
			t.Errorf("stat %d: Segments = %d, want %d", i, st.Segments, len(res.Clusters[i].Segments))
		}
		if st.Trajectories != len(res.Clusters[i].Trajectories) {
			t.Errorf("stat %d: Trajectories = %d, want %d", i, st.Trajectories, len(res.Clusters[i].Trajectories))
		}
		if st.SSE < 0 || math.IsNaN(st.SSE) {
			t.Errorf("stat %d: SSE = %v", i, st.SSE)
		}
	}
}

func TestConfigValidateTyped(t *testing.T) {
	valid := classifyConfig()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	nan := math.NaN()
	bad := []traclus.Config{
		{Eps: nan, MinLns: 6},
		{Eps: math.Inf(1), MinLns: 6},
		{Eps: -3, MinLns: 6},
		{Eps: 30, MinLns: nan},
		{Eps: 30, MinLns: 6, MinTrajs: -1},
		{Eps: 30, MinLns: 6, Weights: traclus.Weights{Perpendicular: -1}},
		{Eps: 30, MinLns: 6, Weights: traclus.Weights{Perpendicular: nan}},
		{Eps: 30, MinLns: 6, CostAdvantage: nan},
		{Eps: 30, MinLns: 6, MinSegmentLength: -1},
		{Eps: 30, MinLns: 6, Gamma: nan},
	}
	for i, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("case %d: invalid config accepted", i)
			continue
		}
		var ce *traclus.ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("case %d: error %T is not a *ConfigError", i, err)
		}
		// Run must reject the same configs, still as a typed error.
		if _, err := run(corridorTrajectories(), cfg); !errors.As(err, &ce) {
			t.Errorf("case %d: Run error %v is not a *ConfigError", i, err)
		}
	}
}

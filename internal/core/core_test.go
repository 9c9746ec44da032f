package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mdl"
	"repro/internal/segclust"
	"repro/internal/synth"
)

// run composes the phases the way the public Pipeline does: validate,
// partition, group, represent.
func run(trs []geom.Trajectory, cfg Config) (*Output, error) {
	if err := ValidateTrajectories(trs); err != nil {
		return nil, err
	}
	items := PartitionAll(trs, cfg)
	res, err := segclust.Run(items, cfg.Segclust())
	if err != nil {
		return nil, err
	}
	return AssembleCtx(context.Background(), items, res, cfg, nil, nil)
}

func sceneConfig() Config {
	cfg := DefaultConfig()
	cfg.Eps = 30
	cfg.MinLns = 6
	cfg.Partition = mdl.Config{CostAdvantage: 15, MinLength: 40}
	return cfg
}

func TestRunOnCorridorScene(t *testing.T) {
	trs := synth.CorridorScene(3, 10, 24, 4, 1)
	out, err := run(trs, sceneConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.NumClusters() != 3 {
		t.Fatalf("clusters = %d, want 3", out.NumClusters())
	}
	for i, c := range out.Clusters {
		if len(c.Trajectories) < 6 {
			t.Errorf("cluster %d has only %d trajectories", i, len(c.Trajectories))
		}
		if len(c.Representative) < 2 {
			t.Errorf("cluster %d has no representative", i)
		}
		if len(c.Segments) != len(c.Members) {
			t.Errorf("cluster %d: segments/members mismatch", i)
		}
	}
}

func TestRepresentativeFollowsCorridor(t *testing.T) {
	trs := synth.CorridorScene(1, 12, 24, 3, 2) // one horizontal corridor
	out, err := run(trs, sceneConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.NumClusters() != 1 {
		t.Fatalf("clusters = %d, want 1", out.NumClusters())
	}
	rep := out.Clusters[0].Representative
	if len(rep) < 2 {
		t.Fatal("no representative")
	}
	// The corridor is horizontal: the representative should be too.
	y := rep[0].Y
	for _, p := range rep {
		if math.Abs(p.Y-y) > 20 {
			t.Errorf("representative strays vertically: %v", p)
		}
	}
	span := math.Abs(rep[len(rep)-1].X - rep[0].X)
	if span < 300 {
		t.Errorf("representative span %v too short", span)
	}
}

func TestPartitionAllParallelMatchesSerial(t *testing.T) {
	trs := synth.CorridorScene(4, 8, 30, 4, 3)
	serial := sceneConfig()
	serial.Workers = 1
	parallel := sceneConfig()
	parallel.Workers = 8
	a := PartitionAll(trs, serial)
	b := PartitionAll(trs, parallel)
	if len(a) != len(b) {
		t.Fatalf("segment counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("segment %d differs", i)
		}
	}
}

func TestRunValidatesInput(t *testing.T) {
	bad := []geom.Trajectory{geom.NewTrajectory(0, []geom.Point{geom.Pt(0, 0)})}
	if _, err := run(bad, sceneConfig()); err == nil {
		t.Error("single-point trajectory accepted")
	}
	nan := []geom.Trajectory{{ID: 0, Weight: 1, Points: []geom.Point{geom.Pt(0, 0), {X: math.NaN(), Y: 1}}}}
	if _, err := run(nan, sceneConfig()); err == nil {
		t.Error("NaN trajectory accepted")
	}
}

func TestRunPropagatesClusterConfigErrors(t *testing.T) {
	trs := synth.CorridorScene(1, 4, 10, 2, 4)
	cfg := sceneConfig()
	cfg.Eps = 0
	if _, err := run(trs, cfg); err == nil {
		t.Error("Eps=0 accepted")
	}
}

func TestWeightsDefaultToOne(t *testing.T) {
	trs := synth.CorridorScene(1, 8, 20, 3, 5)
	for i := range trs {
		trs[i].Weight = 0 // unset
	}
	items := PartitionAll(trs, sceneConfig())
	for _, it := range items {
		if it.Weight != 1 {
			t.Fatalf("weight = %v, want 1", it.Weight)
		}
	}
}

func TestAvgSegmentsPerCluster(t *testing.T) {
	out := &Output{}
	if got := out.AvgSegmentsPerCluster(); got != 0 {
		t.Errorf("empty = %v", got)
	}
	out.Clusters = []Cluster{
		{Members: []int{1, 2, 3}},
		{Members: []int{4}},
	}
	if got := out.AvgSegmentsPerCluster(); got != 2 {
		t.Errorf("avg = %v", got)
	}
}

func TestGammaDefault(t *testing.T) {
	cfg := Config{Eps: 40}
	if got := cfg.EffectiveGamma(); got != 10 {
		t.Errorf("default gamma = %v, want Eps/4", got)
	}
	cfg.Gamma = 3
	if got := cfg.EffectiveGamma(); got != 3 {
		t.Errorf("explicit gamma = %v", got)
	}
}

func TestEmptyInput(t *testing.T) {
	out, err := run(nil, sceneConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.NumClusters() != 0 || len(out.Items) != 0 {
		t.Error("empty input produced output")
	}
}

package mdl

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
)

// randomTrajectories builds trajectories of varying length, with occasional
// duplicated points so the Partitioner's dedup scratch is exercised.
func randomTrajectories(seed int64, n int) []geom.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	trs := make([]geom.Trajectory, n)
	for i := range trs {
		m := 2 + rng.Intn(60)
		pts := make([]geom.Point, 0, m)
		x, y, heading := rng.Float64()*100, rng.Float64()*100, rng.Float64()*6
		for j := 0; j < m; j++ {
			if rng.Float64() < 0.15 {
				heading += (rng.Float64() - 0.5) * 2
			}
			x += 10 * rng.Float64()
			y += 10 * (rng.Float64() - 0.5) * heading
			pts = append(pts, geom.Pt(x, y))
			if rng.Float64() < 0.1 { // duplicate fix
				pts = append(pts, geom.Pt(x, y))
			}
		}
		trs[i] = geom.NewTrajectory(i, pts)
	}
	return trs
}

func TestPartitionAllMatchesSerialPartition(t *testing.T) {
	trs := randomTrajectories(7, 80)
	cfg := Config{CostAdvantage: 3, MinLength: 5}
	want := make([][]geom.Segment, len(trs))
	for i := range trs {
		want[i] = Partition(trs[i], cfg)
	}
	for _, workers := range []int{1, 2, 7, 0} {
		got := PartitionAll(trs, cfg, workers)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: PartitionAll differs from serial Partition", workers)
		}
	}
}

// TestPartitionerScratchReuse runs one Partitioner over many trajectories
// and checks each result against a fresh partitioning — stale scratch
// contents must never leak into a later trajectory's output.
func TestPartitionerScratchReuse(t *testing.T) {
	trs := randomTrajectories(8, 40)
	cfg := Config{MinLength: 2}
	p := NewPartitioner(cfg)
	for i, tr := range trs {
		got, _ := p.Partition(tr)
		want, _ := NewPartitioner(cfg).Partition(tr)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trajectory %d: reused Partitioner gave %v, fresh gave %v", i, got, want)
		}
	}
}

func TestPartitionAllEmptyAndDegenerate(t *testing.T) {
	if got := PartitionAll(nil, Config{}, 4); len(got) != 0 {
		t.Errorf("PartitionAll(nil) = %v", got)
	}
	trs := []geom.Trajectory{
		geom.NewTrajectory(0, nil),
		geom.NewTrajectory(1, []geom.Point{geom.Pt(1, 1)}),
		geom.NewTrajectory(2, []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1)}), // dedups to one point
		geom.NewTrajectory(3, []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}),
	}
	got := PartitionAll(trs, Config{}, 2)
	for i := 0; i < 3; i++ {
		if got[i] != nil {
			t.Errorf("trajectory %d: want nil segments, got %v", i, got[i])
		}
	}
	if len(got[3]) != 1 {
		t.Errorf("trajectory 3: want 1 segment, got %v", got[3])
	}
}

// TestPartitionAllCtx pins the ctx-aware variant: uncancelled it matches
// PartitionAll exactly and ticks once per trajectory; pre-cancelled it
// returns ctx.Err() and nothing else.
func TestPartitionAllCtx(t *testing.T) {
	trs := randomTrajectories(7, 80)
	cfg := Config{CostAdvantage: 5}
	want := PartitionAll(trs, cfg, 1)
	var ticks atomic.Int64
	got, _, err := PartitionAllCtx(context.Background(), trs, cfg, 4, func() { ticks.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("PartitionAllCtx differs from PartitionAll")
	}
	if ticks.Load() != int64(len(trs)) {
		t.Errorf("ticked %d times, want %d", ticks.Load(), len(trs))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, _, err := PartitionAllCtx(ctx, trs, cfg, 4, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Error("cancelled PartitionAllCtx returned output")
	}
}

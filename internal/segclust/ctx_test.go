package segclust

// Cancellation and progress-tick behavior of the ctx-aware clustering
// entry points, plus the ResultFromLabels canonicalisation bridge; the
// uncancelled worker-equivalence side lives in parallel_test.go.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/spindex"
)

// TestRunCtxMatchesRun pins that RunSharedCtx with a background context and
// ticks enabled is bit-identical to Run, on both the serial and parallel
// paths, and that every item ticks exactly once.
func TestRunCtxMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := corridorItems(rng, 300, 3, 25)
	for _, workers := range []int{1, 4} {
		cfg := defaultCfg()
		cfg.Workers = workers
		want, err := Run(items, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ticks atomic.Int64
		shared := NewSharedIndexFor(items, cfg.Options, cfg.Backend)
		got, err := RunSharedCtx(context.Background(), shared, cfg, func() { ticks.Add(1) })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: RunCtx result differs from Run", workers)
		}
		if ticks.Load() != int64(len(items)) {
			t.Errorf("workers=%d: ticked %d times, want %d", workers, ticks.Load(), len(items))
		}
	}
}

// TestRunCtxCancelled pins prompt abort on both paths: a pre-cancelled
// context returns ctx.Err() and no result.
func TestRunCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := corridorItems(rng, 300, 3, 25)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		cfg := defaultCfg()
		cfg.Workers = workers
		res, err := RunSharedCtx(ctx, NewSharedIndexFor(items, cfg.Options, cfg.Backend), cfg, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Fatalf("workers=%d: cancelled RunCtx returned a result", workers)
		}
	}
}

// TestNeighborhoodWeightsCtxCancelled covers the §4.4 estimation
// dependency: a done context stops the shared neighborhood pass.
func TestNeighborhoodWeightsCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := corridorItems(rng, 200, 3, 25)
	shared := NewSharedIndexFor(items, lsdist.DefaultOptions(), spindex.Grid())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := shared.NeighborhoodWeightsCtx(ctx, 25, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	weights, err := shared.NeighborhoodWeightsCtx(context.Background(), 25, 4)
	if err != nil || len(weights) != len(items) {
		t.Fatalf("uncancelled pass: len=%d err=%v", len(weights), err)
	}
}

// TestResultFromLabelsCanonicalises pins the labels bridge: gapped
// ids are renumbered densely in ascending order, members come out
// ascending, trajectory sets sorted, and the Definition 10 filter demotes
// thin clusters to noise.
func TestResultFromLabelsCanonicalises(t *testing.T) {
	segs := make([]geom.Segment, 12)
	for i := range segs {
		segs[i] = geom.Seg(float64(i), 0, float64(i)+10, 0)
	}
	items := ItemsFromSegments(segs) // TrajID = index, weight 1
	//              0  1   2  3  4  5  6   7  8  9 10 11
	labels := []int{7, 7, -1, 3, 3, 3, 9, -5, 7, 3, 9, 9}
	res := ResultFromLabels(items, labels, 0, 42)
	if res.DistCalls != 42 {
		t.Errorf("DistCalls = %d, want 42", res.DistCalls)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("%d clusters, want 3", len(res.Clusters))
	}
	// Ascending original ids: 3 → 0, 7 → 1, 9 → 2.
	wantMembers := [][]int{{3, 4, 5, 9}, {0, 1, 8}, {6, 10, 11}}
	for ci, want := range wantMembers {
		if !reflect.DeepEqual(res.Clusters[ci].Members, want) {
			t.Errorf("cluster %d members = %v, want %v", ci, res.Clusters[ci].Members, want)
		}
		if !reflect.DeepEqual(res.Clusters[ci].Trajectories, want) {
			t.Errorf("cluster %d trajectories = %v, want %v (one trajectory per item)",
				ci, res.Clusters[ci].Trajectories, want)
		}
	}
	wantOf := []int{1, 1, Noise, 0, 0, 0, 2, Noise, 1, 0, 2, 2}
	if !reflect.DeepEqual(res.ClusterOf, wantOf) {
		t.Errorf("ClusterOf = %v, want %v", res.ClusterOf, wantOf)
	}
	if res.Removed != 0 {
		t.Errorf("Removed = %d, want 0", res.Removed)
	}

	// With minTrajs 4 only the four-trajectory cluster survives.
	filtered := ResultFromLabels(items, labels, 4, 0)
	if len(filtered.Clusters) != 1 || filtered.Removed != 2 {
		t.Fatalf("minTrajs=4: %d clusters, Removed=%d; want 1 and 2",
			len(filtered.Clusters), filtered.Removed)
	}
	if !reflect.DeepEqual(filtered.Clusters[0].Members, []int{3, 4, 5, 9}) {
		t.Errorf("surviving cluster members = %v", filtered.Clusters[0].Members)
	}
}

// TestResultFromLabelsMatchesRun pins that canonicalising Run's own
// ClusterOf reproduces Run's Result exactly — the invariant a dendrogram
// cut relies on when it labels the ε-graph outside a grouping pass.
func TestResultFromLabelsMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := corridorItems(rng, 300, 3, 25)
	want, err := Run(items, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	got := ResultFromLabels(items, want.ClusterOf, 0, want.DistCalls)
	got.Removed = want.Removed // ClusterOf no longer carries the removed sets
	if !reflect.DeepEqual(want, got) {
		t.Error("ResultFromLabels(Run.ClusterOf) differs from Run's own Result")
	}
}

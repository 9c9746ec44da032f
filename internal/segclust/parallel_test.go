package segclust

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/lsdist"
)

// TestWorkersEquivalence is the grouping-phase determinism contract: for
// every index strategy, every worker count yields the Figure-12 oracle's
// Result, and DistCalls does not depend on the worker count either.
func TestWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := corridorItemsSpread(rng, 600, 3, 25, 700)
	cfg := defaultCfg()
	want := figure12(items, planar(items, cfg.Options), cfg.Eps, cfg.MinLns, cfg.MinTrajs)
	for _, kind := range []IndexKind{IndexGrid, IndexRTree, IndexNone} {
		cfg.Index = kind
		diffWorkers(t, fmt.Sprintf("index=%v", kind), want, []int{1, 2, 5, 16, 0}, func(workers int) (*Result, error) {
			cfg.Workers = workers
			return Run(items, cfg)
		})
	}
}

// TestRunWithDistanceWorkersEquivalence covers the custom-distance path,
// which always scans but still fans neighborhood computation out.
func TestRunWithDistanceWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	items := corridorItemsSpread(rng, 200, 2, 10, 300)
	dist := func(a, b geom.Segment) float64 {
		return a.Midpoint().Dist(b.Midpoint())
	}
	cfg := Config{Eps: 60, MinLns: 3, Options: lsdist.DefaultOptions()}
	want := figure12(items, func(i, j int) float64 { return dist(items[i].Seg, items[j].Seg) }, cfg.Eps, cfg.MinLns, 0)
	diffWorkers(t, "custom distance", want, []int{1, 6}, func(workers int) (*Result, error) {
		cfg.Workers = workers
		return RunWithDistance(items, dist, cfg)
	})
}

// ladderItems builds horizontal unit-direction segments of length 10 at
// x ∈ [0,10] whose TRACLUS distance is just the vertical offset, arranged
// as paired "ladders" of four core rows (y = c..c+3 and c+13..c+16) with a
// shared border row at y = c+8 — within ε = 5 of the top core of the lower
// ladder and the bottom core of the upper ladder, but with only 2 < MinLns
// core neighbors of its own. Every pair therefore exercises the
// first-come-first-served border handoff between two clusters.
func ladderItems(blocks int) []Item {
	var items []Item
	for b := 0; b < blocks; b++ {
		c := 100 * float64(b)
		for _, dy := range []float64{0, 1, 2, 3, 13, 14, 15, 16, 8} {
			y := c + dy
			items = append(items, Item{Seg: geom.Seg(0, y, 10, y), TrajID: len(items), Weight: 1})
		}
	}
	return items
}

func ladderCfg() Config {
	return Config{Eps: 5, MinLns: 4, MinTrajs: 1, Options: lsdist.DefaultOptions(), Index: IndexGrid}
}

// TestSharedBorderFirstComeSemantics pins the DBSCAN tie-break the ε-graph
// labeling must reproduce: a border segment reachable from two clusters goes
// to the cluster created first in scan order — which is NOT in general the
// cluster of its lowest-index core neighbor. The fixture places cluster B's
// cores at indices 1–4 and cluster A's at 0,5,6,7 with the shared border at
// index 8: the border's lowest-index core neighbor (index 1) is in B, but
// Figure 12's scan creates A first (index 0) and A's expansion claims the
// border before B exists.
func TestSharedBorderFirstComeSemantics(t *testing.T) {
	y := []float64{0, 13, 14, 15, 16, 1, 2, 3, 8}
	items := make([]Item, len(y))
	for i, yy := range y {
		items[i] = Item{Seg: geom.Seg(0, yy, 10, yy), TrajID: i, Weight: 1}
	}
	cfg := ladderCfg()
	want := figure12(items, planar(items, cfg.Options), cfg.Eps, cfg.MinLns, cfg.MinTrajs)
	if want.NumClusters() != 2 {
		t.Fatalf("fixture yields %d clusters, want 2", want.NumClusters())
	}
	if got := want.ClusterOf[8]; got != 0 {
		t.Fatalf("border went to cluster %d, want first-created cluster 0", got)
	}
	if got := want.ClusterOf[1]; got != 1 {
		t.Fatalf("min-index core neighbor of the border is in cluster %d, want 1 (the trap)", got)
	}
	for _, kind := range []IndexKind{IndexGrid, IndexRTree, IndexNone} {
		cfg.Index = kind
		diffWorkers(t, fmt.Sprintf("index=%v: border assignment", kind), want, []int{1, 2, 4, 0}, func(workers int) (*Result, error) {
			cfg.Workers = workers
			return Run(items, cfg)
		})
	}
}

// TestSharedBorderWorkersEquivalence stresses the ε-graph labeling against
// Figure 12 on many shuffled shared-border ladders (clusters that compete
// for the same border segments), at Workers {1, 2, 4, all} for every index
// strategy. CI runs this under -race, which also vets the union-find and
// border passes for data races.
func TestSharedBorderWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := ladderItems(24)
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	cfg := ladderCfg()
	want := figure12(items, planar(items, cfg.Options), cfg.Eps, cfg.MinLns, cfg.MinTrajs)
	if want.NumClusters() < 24 {
		t.Fatalf("fixture collapsed to %d clusters", want.NumClusters())
	}
	for _, kind := range []IndexKind{IndexGrid, IndexRTree, IndexNone} {
		cfg.Index = kind
		diffWorkers(t, fmt.Sprintf("index=%v", kind), want, []int{1, 2, 4, 0}, func(workers int) (*Result, error) {
			cfg.Workers = workers
			return Run(items, cfg)
		})
	}
}

// TestNeighborhoodArenaMatchesLazy checks the neighborhood store every
// grouping consumes against independently computed lazy neighborhoods: same
// ids in the same order, same weights, same distance budget.
func TestNeighborhoodArenaMatchesLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	items := corridorItemsSpread(rng, 400, 3, 20, 600)
	cfg := defaultCfg()
	shared := NewSharedIndexFor(items, cfg.Options, BackendFor(cfg.Index))
	hs, calls, err := shared.neighborhoods(context.Background(), cfg.Eps, 8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lazy := &engine{items: items, cfg: cfg, src: NewSharedIndexFor(items, cfg.Options, cfg.backend()).view(cfg.Eps)}
	var hood []int
	for i := range items {
		var w float64
		hood, w = lazy.neighborhood(i, hood[:0])
		got := hs.hood(i)
		if len(got) != len(hood) {
			t.Fatalf("item %d: arena hood has %d ids, lazy %d", i, len(got), len(hood))
		}
		for k := range hood {
			if int(got[k]) != hood[k] {
				t.Fatalf("item %d: arena hood %v != lazy %v", i, got, hood)
			}
		}
		if w != hs.w[i] {
			t.Fatalf("item %d: arena weight %v != lazy %v", i, hs.w[i], w)
		}
	}
	if calls != lazy.calls {
		t.Errorf("distance calls: arena %d != lazy %d", calls, lazy.calls)
	}
}

// TestPrecomputedHoodsMatchLazy checks the precomputed neighborhood lists
// against independently computed lazy ones, id for id and in order.
func TestPrecomputedHoodsMatchLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	items := corridorItemsSpread(rng, 300, 3, 15, 500)
	cfg := defaultCfg()
	shared := NewSharedIndexFor(items, cfg.Options, BackendFor(cfg.Index))
	hoods := make([][]int, len(items))
	weights := make([]float64, len(items))
	calls := shared.forEachNeighborhood(cfg.Eps, 8,
		func(i int, hood []int, w float64) {
			hoods[i] = append([]int(nil), hood...)
			weights[i] = w
		})

	lazy := &engine{items: items, cfg: cfg, src: NewSharedIndexFor(items, cfg.Options, cfg.backend()).view(cfg.Eps)}
	var hood []int
	for i := range items {
		var w float64
		hood, w = lazy.neighborhood(i, hood[:0])
		if !reflect.DeepEqual(append([]int(nil), hood...), hoods[i]) {
			t.Fatalf("item %d: precomputed hood %v != lazy %v", i, hoods[i], hood)
		}
		if w != weights[i] {
			t.Fatalf("item %d: precomputed weight %v != lazy %v", i, weights[i], w)
		}
	}
	if calls != lazy.calls {
		t.Errorf("distance calls: precomputed %d != lazy %d", calls, lazy.calls)
	}
}

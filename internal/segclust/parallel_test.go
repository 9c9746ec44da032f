package segclust

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/spindex"
)

// TestWorkersEquivalence is the grouping-phase determinism contract: for
// every index strategy, every worker count yields the Figure-12 oracle's
// Result, and DistCalls does not depend on the worker count either.
func TestWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := corridorItemsSpread(rng, 600, 3, 25, 700)
	cfg := defaultCfg()
	want := figure12(items, planar(items, cfg.Options), cfg.Eps, cfg.MinLns, cfg.MinTrajs)
	for _, kind := range []spindex.Backend{spindex.Grid(), spindex.RTree(), spindex.Brute()} {
		cfg.Backend = kind
		diffWorkers(t, fmt.Sprintf("index=%s", kind.Name()), want, []int{1, 2, 5, 16, 0}, func(workers int) (*Result, error) {
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
	return Config{Eps: 5, MinLns: 4, MinTrajs: 1, Options: lsdist.DefaultOptions()}
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
	for _, kind := range []spindex.Backend{spindex.Grid(), spindex.RTree(), spindex.Brute()} {
		cfg.Backend = kind
		diffWorkers(t, fmt.Sprintf("index=%s: border assignment", kind.Name()), want, []int{1, 2, 4, 0}, func(workers int) (*Result, error) {
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
	for _, kind := range []spindex.Backend{spindex.Grid(), spindex.RTree(), spindex.Brute()} {
		cfg.Backend = kind
		diffWorkers(t, fmt.Sprintf("index=%s", kind.Name()), want, []int{1, 2, 4, 0}, func(workers int) (*Result, error) {
			cfg.Workers = workers
			return Run(items, cfg)
		})
	}
}

// lazyHoods is the reference the neighborhood tests check against: every
// item's ε-neighborhood computed on its own from the cursor's candidates and
// exact distances, id for id in ascending order, with its fractional weight
// summed in that order.
func lazyHoods(shared *SharedIndex, eps float64) ([][]int32, []float64) {
	items := shared.Items()
	cur := shared.Cursor()
	hoods := make([][]int32, len(items))
	weights := make([]float64, len(items))
	var cand []int
	var dists []float64
	for i := range items {
		cand = cur.CandidatesOf(i, eps, cand[:0])
		dists = cur.DistBlock(i, cand, dists)
		for k, j := range cand {
			if dists[k] <= eps {
				hoods[i] = append(hoods[i], int32(j))
			}
		}
		slices.Sort(hoods[i])
		for _, j := range hoods[i] {
			weights[i] += items[j].Weight
		}
	}
	return hoods, weights
}

// lazyCalls is the count of candidate pairs a neighborhood pass querying the
// items [lo, n) refines: every candidate of every queried item.
func lazyCalls(shared *SharedIndex, eps float64, lo int) int {
	cur := shared.Cursor()
	calls := 0
	var cand []int
	for i := lo; i < shared.Len(); i++ {
		cand = cur.CandidatesOf(i, eps, cand[:0])
		calls += len(cand)
	}
	return calls
}

// diffHoods fails unless every neighborhood and weight in hs is the lazy
// reference's, the weights bit for bit.
func diffHoods(t *testing.T, what string, hs *hoodSet, hoods [][]int32, weights []float64) {
	t.Helper()
	if len(hs.w) != len(hoods) {
		t.Fatalf("%s: %d neighborhoods, reference %d", what, len(hs.w), len(hoods))
	}
	for i, want := range hoods {
		if !slices.Equal(hs.hood(i), want) {
			t.Fatalf("%s: item %d: hood %v, reference %v", what, i, hs.hood(i), want)
		}
		if math.Float64bits(hs.w[i]) != math.Float64bits(weights[i]) {
			t.Fatalf("%s: item %d: weight %v, reference %v", what, i, hs.w[i], weights[i])
		}
	}
}

// weightedCorridor is a corridor fixture with fractional item weights, so a
// weight summed in a different order shows up in its bits.
func weightedCorridor(seed int64, n, k, trajs int, spread float64) []Item {
	items := corridorItemsSpread(rand.New(rand.NewSource(seed)), n, k, trajs, spread)
	for i := range items {
		items[i].Weight = float64(1+i%5) / 10
	}
	return items
}

// TestNeighborhoodArenaMatchesLazy checks the neighborhood store every batch
// grouping consumes (the half-pair pass into per-worker block arenas, then
// the reflection pass) against the lazy reference, on every backend at one
// and eight workers: id for id in ascending order, fractional weights bit for
// bit (through NeighborhoodWeights too), and the same count of candidate
// pairs refined.
func TestNeighborhoodArenaMatchesLazy(t *testing.T) {
	items := weightedCorridor(19, 400, 3, 20, 600)
	cfg := defaultCfg()
	for _, kind := range oracleKinds {
		shared := NewSharedIndexFor(items, cfg.Options, kind)
		hoods, weights := lazyHoods(shared, cfg.Eps)
		calls := lazyCalls(shared, cfg.Eps, 0)
		for _, workers := range []int{1, 8} {
			what := fmt.Sprintf("index=%s workers=%d", kind.Name(), workers)
			hs, got, err := shared.neighborhoods(context.Background(), cfg.Eps, workers, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != calls {
				t.Errorf("%s: %d candidate pairs refined, reference %d", what, got, calls)
			}
			diffHoods(t, what, hs, hoods, weights)
			ws := shared.NeighborhoodWeights(cfg.Eps, workers)
			for i := range weights {
				if math.Float64bits(ws[i]) != math.Float64bits(weights[i]) {
					t.Fatalf("%s: item %d: NeighborhoodWeights %v, reference %v", what, i, ws[i], weights[i])
				}
			}
		}
	}
}

// TestPrecomputedHoodsMatchLazy checks neighborhoods precomputed by a build
// and carried across appends (hoodSet.extend over [lo, n), whose items own
// their pairs with the old items and reflect them into the old windows)
// against the lazy reference on the grown index after every epoch, on every
// backend at one and eight workers, with the candidate pairs each append
// refines counted as its queries' candidates.
func TestPrecomputedHoodsMatchLazy(t *testing.T) {
	items := weightedCorridor(13, 300, 3, 15, 500)
	cfg := defaultCfg()
	cuts := []int{100, 220, 221, len(items)}
	for _, kind := range oracleKinds {
		for _, workers := range []int{1, 8} {
			what := fmt.Sprintf("index=%s workers=%d", kind.Name(), workers)
			shared := NewSharedIndexFor(slices.Clone(items[:cuts[0]]), cfg.Options, kind)
			hs, got, err := shared.neighborhoods(context.Background(), cfg.Eps, workers, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			lo := 0
			for e, n := range cuts {
				if e > 0 {
					lo = cuts[e-1]
					shared.grow(items[lo:n])
					if got, err = hs.extend(context.Background(), shared, cfg.Eps, workers, nil, nil); err != nil {
						t.Fatal(err)
					}
				}
				at := fmt.Sprintf("%s n=%d", what, n)
				if calls := lazyCalls(shared, cfg.Eps, lo); got != calls {
					t.Errorf("%s: %d candidate pairs refined, reference %d", at, got, calls)
				}
				hoods, weights := lazyHoods(shared, cfg.Eps)
				diffHoods(t, at, hs, hoods, weights)
			}
		}
	}
}

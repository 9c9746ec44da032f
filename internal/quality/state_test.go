package quality

// Delta ≡ scratch: a State advanced through any sequence of clusterings of
// the same (or a growing) item set must read out exactly the bits a
// from-scratch pass gives for the last clustering.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dendro"
	"repro/internal/lsdist"
	"repro/internal/segclust"
	"repro/internal/spindex"
	"repro/internal/synth"
)

// sweepItems partitions hurricane-like tracks plus random-walk noise, so
// that cuts across ε grow, shrink, merge and drop clusters.
func sweepItems(t testing.TB) []segclust.Item {
	t.Helper()
	trs := synth.MixNoise(synth.Hurricanes(synth.HurricaneConfig{NumTracks: 40, MeanPoints: 20, Jitter: 4, Seed: 3}), 0.3, 20, 9)
	cfg := core.DefaultConfig()
	cfg.Partition.CostAdvantage, cfg.Partition.MinLength = 15, 40
	items := core.PartitionAll(trs, cfg)
	if len(items) < 100 {
		t.Fatalf("scene too small: %d items", len(items))
	}
	return items
}

// sameState fails unless got reads out exactly want's bits.
func sameState(t *testing.T, label string, got, want *State) {
	t.Helper()
	if len(got.sse) != len(want.sse) {
		t.Fatalf("%s: %d groups, want %d", label, len(got.sse), len(want.sse))
	}
	for g := range want.sse {
		if !sameFloat(got.sse[g], want.sse[g]) {
			t.Fatalf("%s: group %d SSE %v (%x), scratch %v (%x)", label, g,
				got.sse[g], math.Float64bits(got.sse[g]), want.sse[g], math.Float64bits(want.sse[g]))
		}
		if got.sums[g] != want.sums[g] {
			t.Fatalf("%s: group %d exact sum differs from scratch", label, g)
		}
	}
	gb, wb := got.Breakdown(), want.Breakdown()
	if !sameFloat(gb.TotalSSE, wb.TotalSSE) || !sameFloat(gb.NoisePenalty, wb.NoisePenalty) {
		t.Fatalf("%s: breakdown %+v, scratch %+v", label, gb, wb)
	}
}

func scratch(t *testing.T, items []segclust.Item, res *segclust.Result, workers int) *State {
	t.Helper()
	st, err := (*State)(nil).Next(context.Background(), items, res, lsdist.DefaultOptions(), workers)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// moves reports what happened between two labelings of the same items: a
// cluster member left its cluster, two clusters merged.
func moves(prev, cur *segclust.Result) (departed, merged bool) {
	into := map[int]int{} // old cluster → the new cluster its first member went to
	for i, o := range prev.ClusterOf {
		n := cur.ClusterOf[i]
		if o == segclust.Noise {
			continue
		}
		if to, ok := into[o]; ok && to != n {
			departed = true
		} else if !ok {
			into[o] = n
		}
		if n == segclust.Noise {
			departed = true
		}
	}
	from := map[int]int{}
	for o, n := range into {
		if n == segclust.Noise {
			continue
		}
		if _, ok := from[n]; ok {
			merged = true
		}
		from[n] = o
	}
	return departed, merged
}

func TestNextChainMatchesScratch(t *testing.T) {
	items := sweepItems(t)
	ctx := context.Background()
	d, err := dendro.FromShared(ctx, segclust.NewSharedIndexFor(items, lsdist.DefaultOptions(), spindex.Grid()), 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	grid := make([]float64, 24)
	for k := range grid {
		grid[k] = 4 + 56*float64(k)/float64(len(grid)-1)
	}
	rng := rand.New(rand.NewSource(4))
	shuffled := append([]float64(nil), grid...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	descending := make([]float64, len(grid))
	for k := range grid {
		descending[k] = grid[len(grid)-1-k]
	}
	var departed, merged, removed, saved bool
	for _, walk := range []struct {
		name string
		eps  []float64
	}{{"ascending", grid}, {"descending", descending}, {"shuffled", shuffled}} {
		for _, workers := range []int{1, 3} {
			var st *State
			var prev *segclust.Result
			for _, eps := range walk.eps {
				res, err := d.CutAt(eps, 6, 4)
				if err != nil {
					t.Fatal(err)
				}
				if st, err = st.Next(ctx, items, res, lsdist.DefaultOptions(), workers); err != nil {
					t.Fatal(err)
				}
				want := scratch(t, items, res, 1)
				sameState(t, walk.name+" walk", st, want)
				if st.Pairs() > want.Pairs() {
					t.Fatalf("%s walk eps=%g: delta scored %d pairs, more than scratch's %d", walk.name, eps, st.Pairs(), want.Pairs())
				}
				saved = saved || st.Pairs() < want.Pairs()
				removed = removed || res.Removed > 0
				if prev != nil {
					dep, mer := moves(prev, res)
					departed, merged = departed || dep, merged || mer
				}
				prev = res
			}
		}
	}
	if !departed || !merged || !removed || !saved {
		t.Fatalf("walks did not exercise every case: departures %v, merges %v, removed clusters %v, delta cheaper than scratch %v",
			departed, merged, removed, saved)
	}
}

// TestNextGrownItems: a state over a prefix of the items advances to a
// clustering of all of them, as an append does.
func TestNextGrownItems(t *testing.T) {
	items := sweepItems(t)
	ctx := context.Background()
	for _, cut := range []int{len(items) / 2, len(items) - 7, len(items)} {
		before, err := dendro.FromShared(ctx, segclust.NewSharedIndexFor(items[:cut], lsdist.DefaultOptions(), spindex.Grid()), 30, 0)
		if err != nil {
			t.Fatal(err)
		}
		after, err := dendro.FromShared(ctx, segclust.NewSharedIndexFor(items, lsdist.DefaultOptions(), spindex.Grid()), 30, 0)
		if err != nil {
			t.Fatal(err)
		}
		r0, err := before.CutAt(30, 6, 3)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := after.CutAt(30, 6, 3)
		if err != nil {
			t.Fatal(err)
		}
		s0 := scratch(t, items[:cut], r0, 2)
		s1, err := s0.Next(ctx, items, r1, lsdist.DefaultOptions(), 2)
		if err != nil {
			t.Fatal(err)
		}
		sameState(t, "grown", s1, scratch(t, items, r1, 1))
		if cut == len(items) && s1.Pairs() != 0 {
			t.Errorf("advancing to the identical clustering scored %d pairs, want 0", s1.Pairs())
		}
	}
}

func TestNextLeavesReceiverIntact(t *testing.T) {
	items := sweepItems(t)
	ctx := context.Background()
	d, err := dendro.FromShared(ctx, segclust.NewSharedIndexFor(items, lsdist.DefaultOptions(), spindex.Grid()), 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := d.CutAt(20, 6, 0)
	r1, _ := d.CutAt(40, 6, 0)
	s0 := scratch(t, items, r0, 1)
	copied := *s0
	copied.of = append([]int32(nil), s0.of...)
	copied.sums = append([]acc(nil), s0.sums...)
	copied.sse = append([]float64(nil), s0.sse...)
	if _, err := s0.Next(ctx, items, r1, lsdist.DefaultOptions(), 2); err != nil {
		t.Fatal(err)
	}
	sameState(t, "receiver after Next", s0, &copied)
	for i := range copied.of {
		if s0.of[i] != copied.of[i] {
			t.Fatalf("item %d: group changed from %d to %d", i, copied.of[i], s0.of[i])
		}
	}
}

func TestNextHonoursContext(t *testing.T) {
	items := sweepItems(t)
	res := &segclust.Result{ClusterOf: make([]int, len(items)), Clusters: []segclust.Cluster{{}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := (*State)(nil).Next(ctx, items, res, lsdist.DefaultOptions(), workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

package segclust_test

// A grouping handed a dendrogram (segclust.NeighborLists) reads every
// ε-neighborhood from the d ≤ ε prefix of the dendrogram's lists instead of
// scoring the candidates. These tests pin that it finds what the scored pass
// finds: the same ids and weight bits per item, the same candidate charges,
// and, through Figure 12, the same clustering.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dendro"
	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/segclust"
)

// TestListHoodsMatchScored: a neighborhood pass over a dendrogram's lists
// equals the scored pass item for item — ids in ascending order, fractional
// weights bit for bit — and charges the same candidate pairs, over {grid,
// rtree, brute} × Workers {1, 2, 4, all} × {planar, spatiotemporal}, at ε
// below the dendrogram's MaxEps and at it.
func TestListHoodsMatchScored(t *testing.T) {
	const maxEps = 40
	timed := segclust.TimedItems(rand.New(rand.NewSource(72)), 300)
	for i := range timed {
		timed[i].Weight = float64(1+i%5) / 10
	}
	scenes := []struct {
		name  string
		items []segclust.Item
		wt    float64
	}{
		{"planar", segclust.WeightedCorridor(13, 300, 3, 15, 500), 0},
		{"spatiotemporal", timed, 0.05},
	}
	for _, sc := range scenes {
		for _, kind := range segclust.OracleKinds {
			shared := segclust.NewSharedIndex(sc.items, lsdist.DefaultOptions(), sc.wt, kind)
			den, err := dendro.FromShared(context.Background(), shared, maxEps, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 0} {
				for _, eps := range []float64{12, 25, maxEps} {
					what := fmt.Sprintf("%s index=%s workers=%d eps=%g", sc.name, kind.Name(), workers, eps)
					wantIDs, wantW, wantCalls, err := segclust.Hoods(shared, eps, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					ids, w, calls, err := segclust.Hoods(shared, eps, workers, den)
					if err != nil {
						t.Fatal(err)
					}
					if calls != wantCalls {
						t.Errorf("%s: lists charged %d candidate pairs, the scored pass %d", what, calls, wantCalls)
					}
					for i := range wantIDs {
						if !slices.Equal(ids[i], wantIDs[i]) {
							t.Fatalf("%s: item %d: hood %v from the lists, %v scored", what, i, ids[i], wantIDs[i])
						}
						if math.Float64bits(w[i]) != math.Float64bits(wantW[i]) {
							t.Fatalf("%s: item %d: weight %v from the lists, %v scored", what, i, w[i], wantW[i])
						}
					}
				}
			}
		}
	}
}

// TestListFedFractionalWeights is TestOracleFractionalWeights grouped from
// a dendrogram: weights 0.1, 0.2 and 0.3 in id order at shuffled heights,
// and MinLns at their ascending sum, one ulp above the descending one. The
// lists hold each group in (distance, id) order, but the grouping sums every
// neighborhood in id order, so on every backend at Workers {1, 3} it finds
// Figure 12's clusters, with the scored run's DistCalls.
func TestListFedFractionalWeights(t *testing.T) {
	ctx := context.Background()
	items, minLns := segclust.FractionalItems(rand.New(rand.NewSource(75)))
	cfg := segclust.Config{Eps: 5, MinLns: minLns, MinTrajs: 1, Options: lsdist.DefaultOptions()}
	want := segclust.Figure12(items, segclust.Planar(items, cfg.Options), cfg.Eps, cfg.MinLns, cfg.MinTrajs)
	if want.NumClusters() != 24 {
		t.Fatalf("fixture yields %d clusters, want 24", want.NumClusters())
	}
	for _, kind := range segclust.OracleKinds {
		for _, workers := range []int{1, 3} {
			what := fmt.Sprintf("index=%s workers=%d", kind.Name(), workers)
			cfg.Workers = workers
			shared := segclust.NewSharedIndexFor(items, cfg.Options, kind)
			den, err := dendro.FromShared(ctx, shared, 2*cfg.Eps, workers)
			if err != nil {
				t.Fatal(err)
			}
			scored, err := segclust.RunSharedCtx(ctx, shared, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := segclust.NewIncrementalCtx(ctx, shared, cfg, nil, den)
			if err != nil {
				t.Fatal(err)
			}
			segclust.DiffOracle(t, what, want, inc.Result())
			if got := inc.Result().DistCalls; got != scored.DistCalls {
				t.Errorf("%s: %d candidate pairs charged from the lists, %d scored", what, got, scored.DistCalls)
			}
		}
	}
}

// TestCutAtFractionalMinLns: a dendrogram cut applies Figure 12 step 3's
// threshold, ⌈MinLns⌉, when MinTrajs is 0, as a grouping does: at ε = 5 and
// MinLns = 2.5, CutAt over {grid, rtree, brute} removes the one
// density-connected set, drawn from two trajectories, as the oracle does.
func TestCutAtFractionalMinLns(t *testing.T) {
	items := segclust.FractionalMinLnsItems()
	want := segclust.Figure12(items, segclust.Planar(items, lsdist.DefaultOptions()), 5, 2.5, 0)
	if want.Removed != 1 {
		t.Fatalf("fixture: oracle removes %d sets, want 1", want.Removed)
	}
	for _, kind := range segclust.OracleKinds {
		shared := segclust.NewSharedIndexFor(items, lsdist.DefaultOptions(), kind)
		den, err := dendro.FromShared(context.Background(), shared, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := den.CutAt(5, 2.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		segclust.DiffOracle(t, fmt.Sprintf("index=%s CutAt", kind.Name()), want, got)
	}
}

// TestCutAtFractionalWeights: a dendrogram cut sums each ε-neighborhood's
// weight in id order, as every grouping does. Three unit segments at heights
// 0, 2.4 and 1, one trajectory each, weigh 0.1, 0.1 and 0.4, and MinLns is
// their id-order sum, 0.6000000000000001, while each list sums to 0.6 in its
// (distance, id) order. At ε 5 and MinTrajs 1, Figure 12 and Run find one
// cluster of all three, and so must CutAt over {grid, rtree, brute}.
func TestCutAtFractionalWeights(t *testing.T) {
	heights, weights := []float64{0, 2.4, 1}, []float64{0.1, 0.1, 0.4}
	items := make([]segclust.Item, len(heights))
	for i, h := range heights {
		items[i] = segclust.Item{Seg: geom.Seg(0, h, 1, h), TrajID: i, Weight: weights[i]}
	}
	cfg := segclust.Config{Eps: 5, MinLns: (weights[0] + weights[1]) + weights[2], MinTrajs: 1, Options: lsdist.DefaultOptions()}
	want := segclust.Figure12(items, segclust.Planar(items, cfg.Options), cfg.Eps, cfg.MinLns, cfg.MinTrajs)
	if !slices.Equal(want.ClusterOf, []int{0, 0, 0}) {
		t.Fatalf("fixture: oracle labels %v, want [0 0 0]", want.ClusterOf)
	}
	for _, kind := range segclust.OracleKinds {
		cfg.Backend = kind
		run, err := segclust.Run(items, cfg)
		if err != nil {
			t.Fatal(err)
		}
		segclust.DiffOracle(t, fmt.Sprintf("index=%s Run", kind.Name()), want, run)
		den, err := dendro.FromShared(context.Background(), segclust.NewSharedIndexFor(items, cfg.Options, kind), cfg.Eps, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := den.CutAt(cfg.Eps, cfg.MinLns, cfg.MinTrajs)
		if err != nil {
			t.Fatal(err)
		}
		segclust.DiffOracle(t, fmt.Sprintf("index=%s CutAt", kind.Name()), want, got)
	}
}

// TestNewIncrementalListsGuards: lists that do not reach ε are a typed
// *ConfigError, a second lists argument an error, and a nil one the scored
// path.
func TestNewIncrementalListsGuards(t *testing.T) {
	ctx := context.Background()
	items := segclust.WeightedCorridor(3, 60, 2, 6, 200)
	cfg := segclust.Config{Eps: 25, MinLns: 1, Options: lsdist.DefaultOptions()}
	shared := segclust.NewSharedIndexFor(items, cfg.Options, cfg.Backend)
	den, err := dendro.FromShared(ctx, shared, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	var cerr *segclust.ConfigError
	if _, err := segclust.NewIncrementalCtx(ctx, shared, cfg, nil, den); !errors.As(err, &cerr) || cerr.Field != "Eps" {
		t.Errorf("ε %g past the lists' MaxEps 20: got %v, want a *ConfigError on Eps", cfg.Eps, err)
	}
	if _, err := segclust.NewIncrementalCtx(ctx, shared, cfg, nil, den, den); err == nil {
		t.Error("two NeighborLists accepted")
	}
	want, err := segclust.RunSharedCtx(ctx, shared, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := segclust.NewIncrementalCtx(ctx, shared, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := inc.Result(); !slices.Equal(got.ClusterOf, want.ClusterOf) || got.DistCalls != want.DistCalls {
		t.Error("nil NeighborLists: the grouping differs from the scored run")
	}
}

package params

// The estimation-rewire identity: evaluating ε-candidates through the
// dendrogram must return the exact Estimate the per-ε neighborhood path
// returns — the annealer's seeded walk visits the same candidates and sees
// the same entropies, so the argmin, entropy, evals, and MinLns band are
// all equal — while performing zero distance calls beyond the one build.

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dendro"
	"repro/internal/lsdist"
	"repro/internal/segclust"
	"repro/internal/spindex"
	"repro/internal/synth"
)

func estItems(t *testing.T) []segclust.Item {
	t.Helper()
	trs := synth.CorridorScene(3, 10, 20, 5, 13)
	cfg := core.DefaultConfig()
	cfg.Partition.CostAdvantage, cfg.Partition.MinLength = 15, 40
	items := core.PartitionAll(trs, cfg)
	if len(items) < 30 {
		t.Fatalf("scene too small: %d items", len(items))
	}
	return items
}

func TestEstimateDendroIdentity(t *testing.T) {
	items := estItems(t)
	opt := lsdist.Options{Weights: lsdist.DefaultWeights()}
	lo, hi := 5.0, 60.0

	for _, seed := range []int64{0, 1, 42} {
		an := AnnealOptions{Seed: seed}

		// The oracle: per-ε neighborhood passes against the shared index.
		shared := segclust.NewSharedIndexFor(items, opt, spindex.Grid())
		legacy, err := anneal(context.Background(), lo, hi, an, func(eps float64) ([]float64, error) {
			return shared.NeighborhoodWeightsCtx(context.Background(), eps, an.Workers)
		})
		if err != nil {
			t.Fatal(err)
		}

		// Dendrogram path: one build, every candidate answered from it.
		d, err := dendro.FromShared(context.Background(),
			segclust.NewSharedIndexFor(items, opt, spindex.Grid()), hi, an.Workers)
		if err != nil {
			t.Fatal(err)
		}
		calls := d.DistCalls()
		viaDendro, err := EstimateEpsDendroCtx(context.Background(), d, lo, hi, an)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy, viaDendro) {
			t.Errorf("seed %d: estimates differ:\n legacy %+v\n dendro %+v", seed, legacy, viaDendro)
		}
		if d.DistCalls() != calls {
			t.Errorf("seed %d: annealing over the dendrogram performed %d extra distance calls",
				seed, d.DistCalls()-calls)
		}

		// A dendrogram over another backend lands on the same estimate.
		dr, err := dendro.FromShared(context.Background(),
			segclust.NewSharedIndexFor(items, opt, spindex.RTree()), hi, an.Workers)
		if err != nil {
			t.Fatal(err)
		}
		viaRTree, err := EstimateEpsDendroCtx(context.Background(), dr, lo, hi, an)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy, viaRTree) {
			t.Errorf("seed %d: the rtree dendrogram diverged from the legacy annealer", seed)
		}
	}
}

func TestSweepDendroMatchesShared(t *testing.T) {
	items := estItems(t)
	opt := lsdist.Options{Weights: lsdist.DefaultWeights()}
	shared := segclust.NewSharedIndexFor(items, opt, spindex.Grid())
	eps := []float64{4, 9, 16, 25, 36, 49}
	want := make([]EntropyPoint, len(eps))
	for i, e := range eps { // the per-ε oracle
		n := shared.NeighborhoodWeights(e, 0)
		want[i] = EntropyPoint{Eps: e, Entropy: Entropy(n), AvgNeighbors: Average(n)}
	}
	d, err := dendro.FromShared(context.Background(), shared, 49, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepDendro(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("sweep curves differ:\n shared %+v\n dendro %+v", want, got)
	}
}

// TestEstimateRangeRule pins the one range rule and the walk's overflow
// guard. A hi past MaxFloat64/2 (or non-finite) is rejected before any
// evaluation, even by a dendrogram wide enough to answer it: reflecting
// through 2·hi would overflow and the walk would return NaN. At a hi the
// rule admits, a step can still overflow to ±Inf; the walk must stay put
// instead of reflecting ±Inf forever, so seeds whose walks once hung return
// an ε in [lo, hi] within a deadline.
func TestEstimateRangeRule(t *testing.T) {
	items := estItems(t)
	opt := lsdist.Options{Weights: lsdist.DefaultWeights()}
	ctx := context.Background()
	build := func(maxEps float64) *dendro.Dendrogram {
		d, err := dendro.FromShared(ctx, segclust.NewSharedIndexFor(items, opt, spindex.Grid()), maxEps, 0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	wide := build(1e308)
	for _, hi := range []float64{1e308, math.Inf(1), math.NaN()} {
		evals := 0
		est, err := EstimateEpsDendroCtx(ctx, wide, 5, hi, AnnealOptions{OnEval: func() { evals++ }})
		if err == nil {
			t.Errorf("hi = %v accepted: %+v", hi, est)
		}
		if evals != 0 {
			t.Errorf("hi = %v: %d evaluations before the range was rejected", hi, evals)
		}
	}
	if err := CheckRange(5, math.MaxFloat64/2); err != nil {
		t.Errorf("hi = MaxFloat64/2 rejected: %v", err)
	}

	for _, hi := range []float64{8.98e307, math.MaxFloat64 / 2} {
		d := build(hi)
		for _, seed := range []int64{49, 179, 234} {
			done := make(chan struct{})
			var est Estimate
			var err error
			go func() {
				defer close(done)
				est, err = EstimateEpsDendroCtx(ctx, d, 5, hi, AnnealOptions{Seed: seed})
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("hi = %v, seed %d: the walk did not return", hi, seed)
			}
			if err != nil {
				t.Fatalf("hi = %v, seed %d: %v", hi, seed, err)
			}
			if !(est.Eps >= 5 && est.Eps <= hi) {
				t.Errorf("hi = %v, seed %d: ε = %v outside [5, %v]", hi, seed, est.Eps, hi)
			}
		}
	}
}

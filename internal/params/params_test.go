package params

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dendro"
	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/segclust"
	"repro/internal/spindex"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEntropyUniformIsMaximal(t *testing.T) {
	uniform := []float64{4, 4, 4, 4}
	if got, want := Entropy(uniform), 2.0; !approx(got, want, 1e-12) {
		t.Errorf("uniform entropy = %v, want %v", got, want)
	}
	skewed := []float64{13, 1, 1, 1}
	if Entropy(skewed) >= Entropy(uniform) {
		t.Error("skewed distribution should have lower entropy (Section 4.4)")
	}
}

func TestEntropyEdgeCases(t *testing.T) {
	if got := Entropy(nil); got != 0 {
		t.Errorf("empty entropy = %v", got)
	}
	if got := Entropy([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero entropy = %v", got)
	}
	if got := Entropy([]float64{5}); got != 0 {
		t.Errorf("single-element entropy = %v", got)
	}
	// Zero entries are skipped, not NaN.
	if got := Entropy([]float64{2, 0, 2}); math.IsNaN(got) || !approx(got, 1, 1e-12) {
		t.Errorf("entropy with zeros = %v", got)
	}
}

func TestAverage(t *testing.T) {
	if got := Average([]float64{1, 2, 3}); !approx(got, 2, 1e-12) {
		t.Errorf("Average = %v", got)
	}
	if got := Average(nil); got != 0 {
		t.Errorf("Average(nil) = %v", got)
	}
}

func TestSuggestMinLns(t *testing.T) {
	lo, hi := SuggestMinLns(4.39) // the paper's hurricane value → 5..7
	if lo != 5 || hi != 7 {
		t.Errorf("SuggestMinLns(4.39) = %d..%d, want 5..7", lo, hi)
	}
	lo, hi = SuggestMinLns(7.63) // the paper's elk value → 9..11
	if lo != 9 || hi != 11 {
		t.Errorf("SuggestMinLns(7.63) = %d..%d, want 9..11", lo, hi)
	}
	lo, hi = SuggestMinLns(0) // clamped
	if lo < 2 || hi < lo {
		t.Errorf("SuggestMinLns(0) = %d..%d", lo, hi)
	}
}

// testItems builds two dense corridors plus scattered noise so the entropy
// curve has an interior minimum.
func testItems(rng *rand.Rand) []segclust.Item {
	var items []segclust.Item
	id := 0
	for c := 0; c < 2; c++ {
		cy := 100 + 300*float64(c)
		for i := 0; i < 40; i++ {
			x := rng.Float64() * 200
			items = append(items, segclust.Item{
				Seg:    geom.Seg(x, cy+rng.NormFloat64()*4, x+80, cy+rng.NormFloat64()*4),
				TrajID: id % 15,
				Weight: 1,
			})
			id++
		}
	}
	for i := 0; i < 20; i++ {
		items = append(items, segclust.Item{
			Seg: geom.Seg(rng.Float64()*1000, rng.Float64()*600,
				rng.Float64()*1000, rng.Float64()*600),
			TrajID: 100 + i,
			Weight: 1,
		})
	}
	return items
}

// dendrogramAt builds the merge structure a search at hi cuts into, over a
// grid index.
func dendrogramAt(t *testing.T, items []segclust.Item, hi float64) *dendro.Dendrogram {
	t.Helper()
	d, err := dendro.FromShared(context.Background(),
		segclust.NewSharedIndexFor(items, lsdist.DefaultOptions(), spindex.Grid()), hi, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSweepMatchesDirectComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := testItems(rng)
	eps := []float64{10, 20, 30}
	pts, err := SweepDendro(dendrogramAt(t, items, 30), eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("sweep length = %d", len(pts))
	}
	brute := segclust.NewSharedIndexFor(items, lsdist.DefaultOptions(), spindex.Brute())
	for i, p := range pts {
		if p.Eps != eps[i] {
			t.Errorf("eps order changed: %v", p.Eps)
		}
		n := brute.NeighborhoodWeights(eps[i], 1)
		if !approx(p.Entropy, Entropy(n), 1e-9) {
			t.Errorf("eps=%v entropy %v != direct %v", p.Eps, p.Entropy, Entropy(n))
		}
		if !approx(p.AvgNeighbors, Average(n), 1e-9) {
			t.Errorf("eps=%v avg %v != direct %v", p.Eps, p.AvgNeighbors, Average(n))
		}
	}
}

func TestEstimateEpsGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := testItems(rng)
	var eps []float64
	for e := 2.0; e <= 80; e += 2 {
		eps = append(eps, e)
	}
	est, err := EstimateEpsGrid(dendrogramAt(t, items, 80), eps)
	if err != nil {
		t.Fatal(err)
	}
	// The minimum must be interior (the paper's Figure 16 shape): neither
	// the smallest nor the largest ε.
	if est.Eps <= 2 || est.Eps >= 80 {
		t.Errorf("grid optimum at boundary: %v", est.Eps)
	}
	if est.MinLnsLo < 2 || est.MinLnsHi < est.MinLnsLo {
		t.Errorf("MinLns range %d..%d", est.MinLnsLo, est.MinLnsHi)
	}
	if est.Evaluations != len(eps) {
		t.Errorf("Evaluations = %d", est.Evaluations)
	}
}

func TestEstimateEpsAnnealingNearGridOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := testItems(rng)
	var epsGrid []float64
	for e := 2.0; e <= 80; e += 2 {
		epsGrid = append(epsGrid, e)
	}
	d := dendrogramAt(t, items, 80)
	grid, err := EstimateEpsGrid(d, epsGrid)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := EstimateEpsDendroCtx(context.Background(), d, 2, 80, AnnealOptions{Iterations: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Annealing should land at an entropy no worse than ~2% above the
	// grid optimum.
	if sa.Entropy > grid.Entropy*1.02 {
		t.Errorf("annealed entropy %v far above grid optimum %v (eps %v vs %v)",
			sa.Entropy, grid.Entropy, sa.Eps, grid.Eps)
	}
}

func TestEstimateEpsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := testItems(rng)
	opt := AnnealOptions{Iterations: 30, Seed: 9}
	a, err := EstimateEpsDendroCtx(context.Background(), dendrogramAt(t, items, 60), 2, 60, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateEpsDendroCtx(context.Background(), dendrogramAt(t, items, 60), 2, 60, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Eps != b.Eps || a.Entropy != b.Entropy {
		t.Error("EstimateEpsDendroCtx not deterministic for fixed seed")
	}
}

func TestEstimateEpsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := testItems(rng)
	d := dendrogramAt(t, items, 10)
	ctx := context.Background()
	if _, err := EstimateEpsDendroCtx(ctx, d, 0, 10, AnnealOptions{}); err == nil {
		t.Error("lo=0 accepted")
	}
	if _, err := EstimateEpsDendroCtx(ctx, d, 10, 5, AnnealOptions{}); err == nil {
		t.Error("hi<lo accepted")
	}
	if _, err := EstimateEpsDendroCtx(ctx, d, 1, 20, AnnealOptions{}); err == nil {
		t.Error("hi beyond the dendrogram's maximum ε accepted")
	}
	if _, err := EstimateEpsDendroCtx(ctx, dendrogramAt(t, nil, 10), 1, 10, AnnealOptions{}); err == nil {
		t.Error("empty items accepted")
	}
	if _, err := EstimateEpsGrid(d, nil); err == nil {
		t.Error("empty eps grid accepted")
	}
}

// TestEstimateEpsCtx pins the search's cancellation: uncancelled, a
// cancellable context walks the same seeded path as context.Background();
// a pre-cancelled context aborts with ctx.Err() before evaluating anything.
func TestEstimateEpsCtx(t *testing.T) {
	items := testItems(rand.New(rand.NewSource(3)))
	d := dendrogramAt(t, items, 80)
	want, err := EstimateEpsDendroCtx(context.Background(), d, 2, 80, AnnealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	got, err := EstimateEpsDendroCtx(live, d, 2, 80, AnnealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Errorf("cancellable ctx = %+v, context.Background = %+v", got, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	evals := 0
	if _, err := EstimateEpsDendroCtx(ctx, d, 2, 80, AnnealOptions{OnEval: func() { evals++ }}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if evals != 0 {
		t.Errorf("cancelled search evaluated %d candidates, want 0", evals)
	}
}

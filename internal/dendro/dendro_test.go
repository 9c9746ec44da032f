package dendro

// The equivalence suite: CutAt(ε) must be bit-identical to a fresh
// segclust run at ε — labels, cluster membership, trajectory sets, and the
// Removed count — at every ε, under every index backend and worker count.
// That identity is the subsystem's entire contract; everything else
// (sweeps, the estimation rewire, the daemon endpoints) leans on it.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lsdist"
	"repro/internal/segclust"
	"repro/internal/snapshot"
	"repro/internal/spindex"
	"repro/internal/synth"
)

// testItems partitions a three-corridor scene into pooled segments with
// unit weights — the regime where the dendrogram's sorted-order weight
// sums are exactly the fresh pass's candidate-order sums.
func testItems(t *testing.T) []segclust.Item {
	t.Helper()
	trs := synth.CorridorScene(3, 12, 24, 5, 7)
	cfg := core.DefaultConfig()
	cfg.Partition.CostAdvantage, cfg.Partition.MinLength = 15, 40
	items := core.PartitionAll(trs, cfg)
	if len(items) < 50 {
		t.Fatalf("scene too small: %d items", len(items))
	}
	return items
}

func backends() map[string]spindex.Backend {
	return map[string]spindex.Backend{
		"grid":  spindex.Grid(),
		"rtree": spindex.RTree(),
		"brute": spindex.Brute(),
	}
}

func sameResult(t *testing.T, ctxLabel string, want, got *segclust.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.ClusterOf, got.ClusterOf) {
		t.Errorf("%s: ClusterOf differs", ctxLabel)
	}
	if !reflect.DeepEqual(want.Clusters, got.Clusters) {
		t.Errorf("%s: Clusters differ: %d vs %d", ctxLabel, len(want.Clusters), len(got.Clusters))
	}
	if want.Removed != got.Removed {
		t.Errorf("%s: Removed = %d, want %d", ctxLabel, got.Removed, want.Removed)
	}
}

func TestCutEquivalence(t *testing.T) {
	items := testItems(t)
	opt := lsdist.Options{Weights: lsdist.DefaultWeights()}
	epsGrid := []float64{5, 12, 20, 28, 35, 45, 60}
	const minLns = 4

	for name, backend := range backends() {
		for _, workers := range []int{1, 2, 4, 0} {
			d, err := FromShared(context.Background(), segclust.NewSharedIndexFor(items, opt, backend), 60, workers)
			if err != nil {
				t.Fatalf("%s/w%d: Build: %v", name, workers, err)
			}
			for _, eps := range epsGrid {
				got, err := d.CutAt(eps, minLns, 0)
				if err != nil {
					t.Fatalf("%s/w%d/eps=%g: CutAt: %v", name, workers, eps, err)
				}
				want, err := segclust.Run(items, segclust.Config{
					Eps: eps, MinLns: minLns, Options: opt,
					Backend: backend, Workers: workers,
				})
				if err != nil {
					t.Fatalf("%s/w%d/eps=%g: Run: %v", name, workers, eps, err)
				}
				sameResult(t, fmt.Sprintf("%s/w%d/eps=%g", name, workers, eps), want, got)
			}
		}
	}
}

// TestCutRepresentativeEquivalence extends the identity through assembly:
// the representatives built over a cut equal the ones a fresh run's
// clusters produce, since membership and member order are identical.
func TestCutRepresentativeEquivalence(t *testing.T) {
	items := testItems(t)
	opt := lsdist.Options{Weights: lsdist.DefaultWeights()}
	d, err := FromShared(context.Background(), segclust.NewSharedIndexFor(items, opt, spindex.Grid()), 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{15, 25, 40} {
		cut, err := d.CutAt(eps, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := segclust.Run(items, segclust.Config{Eps: eps, MinLns: 4, Options: opt, Backend: spindex.Grid()})
		if err != nil {
			t.Fatal(err)
		}
		ccfg := core.Config{Eps: eps, MinLns: 4, Distance: opt}
		a, err := core.AssembleCtx(context.Background(), items, cut, ccfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.AssembleCtx(context.Background(), items, fresh, ccfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Clusters, b.Clusters) {
			t.Errorf("eps=%g: assembled clusters differ", eps)
		}
	}
}

// TestCutMonotonicity asserts the dendrogram property that justifies the
// name: clusters only merge as ε grows. Two core segments sharing a
// non-noise cluster at ε1 still share one at every ε2 ≥ ε1 at which both
// remain core (cores never split, and a core's cluster can only be
// absorbed into a larger one).
func TestCutMonotonicity(t *testing.T) {
	items := testItems(t)
	opt := lsdist.Options{Weights: lsdist.DefaultWeights()}
	d, err := FromShared(context.Background(), segclust.NewSharedIndexFor(items, opt, spindex.Grid()), 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	const minLns = 4
	epsGrid := []float64{5, 10, 18, 26, 34, 44, 56}
	prevCut := make(map[[2]int]bool)
	for gi, eps := range epsGrid {
		res, err := d.CutAt(eps, minLns, 1) // MinTrajs 1: no cardinality removal
		if err != nil {
			t.Fatal(err)
		}
		core := make([]bool, len(items))
		for i := range items {
			w, err := d.weightAtChecked(i, eps)
			if err != nil {
				t.Fatal(err)
			}
			core[i] = w >= minLns
		}
		for pair := range prevCut {
			a, b := pair[0], pair[1]
			if !core[a] || !core[b] {
				continue
			}
			if res.ClusterOf[a] != res.ClusterOf[b] || res.ClusterOf[a] == segclust.Noise {
				t.Fatalf("eps=%g (grid step %d): core pair %v separated after being joined at a smaller ε", eps, gi, pair)
			}
		}
		// Record this cut's joined core pairs (sampled per cluster to keep
		// the pair set linear).
		for _, c := range res.Clusters {
			var first = -1
			for _, m := range c.Members {
				if !core[m] {
					continue
				}
				if first == -1 {
					first = m
					continue
				}
				prevCut[[2]int{first, m}] = true
			}
		}
	}
}

// weightAtChecked exposes the internal neighborhood weight for the
// monotonicity test without widening the public API.
func (d *Dendrogram) weightAtChecked(i int, eps float64) (float64, error) {
	if eps > d.maxEps {
		return 0, d.rangeErr("Eps", eps)
	}
	return d.weightAt(i, eps), nil
}

func TestNeighborhoodWeightsMatchShared(t *testing.T) {
	items := testItems(t)
	opt := lsdist.Options{Weights: lsdist.DefaultWeights()}
	shared := segclust.NewSharedIndexFor(items, opt, spindex.Grid())
	d, err := FromShared(context.Background(), shared, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{3, 11, 27, 50} {
		want := shared.NeighborhoodWeights(eps, 0)
		got, err := d.NeighborhoodWeights(eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("eps=%g: neighborhood weights differ", eps)
		}
	}
	if _, err := d.NeighborhoodWeights(50.1, nil); err == nil {
		t.Error("eps above MaxEps: want error")
	}
}

// TestCutZeroDistCalls pins the headline property structurally: once
// built, cutting and weighting at any ε performs no distance evaluations —
// the dendrogram's recorded call count never moves, and it holds no
// reference to the searcher that could make one.
func TestCutZeroDistCalls(t *testing.T) {
	items := testItems(t)
	opt := lsdist.Options{Weights: lsdist.DefaultWeights()}
	d, err := FromShared(context.Background(), segclust.NewSharedIndexFor(items, opt, spindex.Grid()), 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	built := d.DistCalls()
	if built == 0 {
		t.Fatal("build recorded no distance calls")
	}
	for _, eps := range []float64{5, 17, 33, 50} {
		if _, err := d.CutAt(eps, 4, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := d.NeighborhoodWeights(eps, nil); err != nil {
			t.Fatal(err)
		}
	}
	if d.DistCalls() != built {
		t.Fatalf("cuts performed %d extra distance calls", d.DistCalls()-built)
	}
	// Cuts report zero DistCalls on the result itself: the work was paid
	// once at build time.
	res, err := d.CutAt(25, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DistCalls != 0 {
		t.Fatalf("cut result claims %d distance calls", res.DistCalls)
	}
}

func TestCutValidation(t *testing.T) {
	items := testItems(t)
	opt := lsdist.Options{Weights: lsdist.DefaultWeights()}
	d, err := FromShared(context.Background(), segclust.NewSharedIndexFor(items, opt, spindex.Grid()), 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		eps, minLns float64
	}{
		{"zero eps", 0, 4},
		{"negative eps", -1, 4},
		{"NaN eps", math.NaN(), 4},
		{"inf eps", math.Inf(1), 4},
		{"eps beyond max", 30.5, 4},
		{"zero minlns", 10, 0},
		{"NaN minlns", 10, math.NaN()},
	}
	for _, tc := range cases {
		var ce *segclust.ConfigError
		if _, err := d.CutAt(tc.eps, tc.minLns, 0); err == nil {
			t.Errorf("%s: CutAt succeeded", tc.name)
		} else if !errors.As(err, &ce) {
			t.Errorf("%s: error %T (%v), want *segclust.ConfigError", tc.name, err, err)
		}
	}
	if _, err := FromShared(context.Background(), segclust.NewSharedIndexFor(items, opt, spindex.Grid()), math.Inf(1), 0); err == nil {
		t.Error("Build with infinite MaxEps succeeded")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	items := testItems(t)
	opt := lsdist.Options{Weights: lsdist.DefaultWeights()}
	d, err := FromShared(context.Background(), segclust.NewSharedIndexFor(items, opt, spindex.Grid()), 45, 0)
	if err != nil {
		t.Fatal(err)
	}
	dd := d.Snapshot()
	if err := dd.Validate(); err != nil {
		t.Fatalf("snapshot of a built dendrogram fails validation: %v", err)
	}
	d2, err := FromSnapshot(dd)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.off, d2.off) || !reflect.DeepEqual(d.ids, d2.ids) ||
		!reflect.DeepEqual(d.dist, d2.dist) || !reflect.DeepEqual(d.cum, d2.cum) ||
		!reflect.DeepEqual(d.edges, d2.edges) || !reflect.DeepEqual(d.items, d2.items) {
		t.Fatal("restored dendrogram's merge structure differs from the original")
	}
	for _, eps := range []float64{8, 22, 45} {
		a, err := d.CutAt(eps, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d2.CutAt(eps, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "restored cut", a, b)
	}
	if _, err := FromSnapshot(nil); err == nil {
		t.Error("FromSnapshot(nil) succeeded")
	}
	bad := d.Snapshot()
	bad.Neighbors[0] = append(bad.Neighbors[0], snapshot.DendroNeighbor{ID: len(items) + 5, Dist: 1})
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("FromSnapshot accepted an out-of-range neighbor id")
	}
}

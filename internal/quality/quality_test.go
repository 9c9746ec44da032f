package quality

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/segclust"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGroupSSEByHand(t *testing.T) {
	// Three parallel unit-offset segments in one cluster. dist pairs:
	// (0,1): d⊥=1, d∥=0, dθ=0 → 1. (1,2): 1. (0,2): 2.
	// SSE = 1/(2·3) · 2·(1² + 1² + 2²) = 2.
	items := []segclust.Item{
		{Seg: geom.Seg(0, 0, 100, 0), TrajID: 0, Weight: 1},
		{Seg: geom.Seg(0, 1, 100, 1), TrajID: 1, Weight: 1},
		{Seg: geom.Seg(0, 2, 100, 2), TrajID: 2, Weight: 1},
	}
	res := &segclust.Result{
		ClusterOf: []int{0, 0, 0},
		Clusters:  []segclust.Cluster{{Members: []int{0, 1, 2}}},
	}
	b := Measure(items, res, lsdist.DefaultOptions(), 1)
	if !approx(b.TotalSSE, 2, 1e-9) {
		t.Errorf("TotalSSE = %v, want 2", b.TotalSSE)
	}
	if b.NoisePenalty != 0 {
		t.Errorf("NoisePenalty = %v, want 0", b.NoisePenalty)
	}
	if !approx(b.QMeasure(), 2, 1e-9) {
		t.Errorf("QMeasure = %v", b.QMeasure())
	}
}

func TestNoisePenaltyByHand(t *testing.T) {
	items := []segclust.Item{
		{Seg: geom.Seg(0, 0, 100, 0), TrajID: 0, Weight: 1},
		{Seg: geom.Seg(0, 3, 100, 3), TrajID: 1, Weight: 1},
	}
	res := &segclust.Result{ClusterOf: []int{segclust.Noise, segclust.Noise}}
	b := Measure(items, res, lsdist.DefaultOptions(), 1)
	// Pairwise distance 3 → penalty = 1/(2·2)·2·3² = 4.5.
	if !approx(b.NoisePenalty, 4.5, 1e-9) {
		t.Errorf("NoisePenalty = %v, want 4.5", b.NoisePenalty)
	}
	if b.TotalSSE != 0 {
		t.Errorf("TotalSSE = %v, want 0", b.TotalSSE)
	}
}

func TestTightClustersScoreBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mk := func(spreadY float64) ([]segclust.Item, *segclust.Result) {
		var items []segclust.Item
		var members []int
		for i := 0; i < 20; i++ {
			y := rng.NormFloat64() * spreadY
			items = append(items, segclust.Item{
				Seg: geom.Seg(float64(i), y, float64(i)+50, y), TrajID: i, Weight: 1,
			})
			members = append(members, i)
		}
		return items, &segclust.Result{
			ClusterOf: make([]int, 20),
			Clusters:  []segclust.Cluster{{Members: members}},
		}
	}
	tightItems, tightRes := mk(1)
	looseItems, looseRes := mk(20)
	tight := Measure(tightItems, tightRes, lsdist.DefaultOptions(), 0).QMeasure()
	loose := Measure(looseItems, looseRes, lsdist.DefaultOptions(), 0).QMeasure()
	if tight >= loose {
		t.Errorf("tight %v should beat loose %v", tight, loose)
	}
}

// TestWorkerCountsAgree: the breakdown is bit-identical across worker
// counts, member orders and item orders — the pair sums are exact, so no
// schedule or permutation can move a bit.
func TestWorkerCountsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, clustered = 400, 300
	var items []segclust.Item
	labels := make([]int, n)
	var members []int
	for i := 0; i < n; i++ {
		items = append(items, segclust.Item{
			Seg: geom.Seg(rng.Float64()*500, rng.Float64()*300,
				rng.Float64()*500, rng.Float64()*300),
			TrajID: i, Weight: 1,
		})
		if i < clustered {
			labels[i] = 0
			members = append(members, i)
		} else {
			labels[i] = segclust.Noise
		}
	}
	res := &segclust.Result{ClusterOf: labels, Clusters: []segclust.Cluster{{Members: members}}}
	want := Measure(items, res, lsdist.DefaultOptions(), 1)
	same := func(label string, got Breakdown) {
		t.Helper()
		if math.Float64bits(got.TotalSSE) != math.Float64bits(want.TotalSSE) ||
			math.Float64bits(got.NoisePenalty) != math.Float64bits(want.NoisePenalty) ||
			math.Float64bits(got.QMeasure()) != math.Float64bits(want.QMeasure()) {
			t.Errorf("%s: %+v, serial %+v", label, got, want)
		}
	}
	for _, workers := range []int{2, 3, 4, 8, 0} {
		same(fmt.Sprintf("workers=%d", workers), Measure(items, res, lsdist.DefaultOptions(), workers))
	}

	reversed := slices.Clone(members)
	slices.Reverse(reversed)
	shuffled := slices.Clone(members)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, m := range map[string][]int{"reversed": reversed, "shuffled": shuffled} {
		r := &segclust.Result{ClusterOf: labels, Clusters: []segclust.Cluster{{Members: m}}}
		same(name+" members", Measure(items, r, lsdist.DefaultOptions(), 3))
	}

	// Permute the items themselves: every pair is scored in the other
	// orientation or at another position of the sum.
	perm := rng.Perm(n)
	pItems := make([]segclust.Item, n)
	pLabels := make([]int, n)
	for i, p := range perm {
		pItems[p], pLabels[p] = items[i], labels[i]
	}
	var pMembers []int
	for i, l := range pLabels {
		if l == 0 {
			pMembers = append(pMembers, i)
		}
	}
	r := &segclust.Result{ClusterOf: pLabels, Clusters: []segclust.Cluster{{Members: pMembers}}}
	for _, workers := range []int{1, 4} {
		same(fmt.Sprintf("permuted items, workers=%d", workers), Measure(pItems, r, lsdist.DefaultOptions(), workers))
	}
}

func TestEmptyResult(t *testing.T) {
	b := Measure(nil, &segclust.Result{}, lsdist.DefaultOptions(), 0)
	if b.QMeasure() != 0 {
		t.Errorf("empty QMeasure = %v", b.QMeasure())
	}
	// Single noise segment: no pairs, zero penalty.
	items := []segclust.Item{{Seg: geom.Seg(0, 0, 1, 1), TrajID: 0, Weight: 1}}
	res := &segclust.Result{ClusterOf: []int{segclust.Noise}}
	if got := Measure(items, res, lsdist.DefaultOptions(), 0).QMeasure(); got != 0 {
		t.Errorf("single-noise QMeasure = %v", got)
	}
}

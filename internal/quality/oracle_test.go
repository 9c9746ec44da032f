package quality

import (
	"context"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/lsdist"
	"repro/internal/segclust"
)

// scalarSSE is Formula 11's term for one group, from the scalar distance:
// Σ_{x<y∈g} fl(DistOpt(x,y)²), summed exactly with math/big, rounded once
// and divided by |g|. A NaN square makes the term NaN, and otherwise a +Inf
// square makes it +Inf.
func scalarSSE(items []segclust.Item, g []int, opt lsdist.Options) float64 {
	if len(g) == 0 {
		return 0
	}
	sum := new(big.Float).SetPrec(4096) // wide enough to hold any sum of float64s exactly
	var nan, inf bool
	for a, x := range g {
		for _, y := range g[a+1:] {
			d := lsdist.DistOpt(items[x].Seg, items[y].Seg, opt)
			switch sq := d * d; {
			case math.IsNaN(sq):
				nan = true
			case math.IsInf(sq, 1):
				inf = true
			default:
				sum.Add(sum, new(big.Float).SetFloat64(sq))
			}
		}
	}
	var total float64
	switch {
	case nan:
		total = math.NaN()
	case inf:
		total = math.Inf(1)
	default:
		total, _ = sum.Float64()
	}
	return total / float64(len(g))
}

// TestMeasureMatchesScalarPairs checks Measure, and a Next chained from
// another clustering, against the scalar distance's exact pair sums, bit
// for bit, under default and non-default options, and on an item set with
// a non-finite coordinate, which is scored on the scalar path.
func TestMeasureMatchesScalarPairs(t *testing.T) {
	base := sweepItems(t)
	nonFinite := append([]segclust.Item(nil), base...)
	nonFinite[7].Seg.End.X = math.Inf(1)
	nonFinite[11].Seg.Start.Y = math.NaN()
	cases := []struct {
		name  string
		items []segclust.Item
		opt   lsdist.Options
	}{
		{"default", base, lsdist.DefaultOptions()},
		{"weights", base, lsdist.Options{Weights: lsdist.Weights{Perpendicular: 0.7, Parallel: 0, Angle: 1.9}}},
		{"undirected", base, lsdist.Options{Weights: lsdist.DefaultWeights(), Undirected: true}},
		{"non-finite", nonFinite, lsdist.DefaultOptions()},
	}
	rng := rand.New(rand.NewSource(4))
	labels := func(n int) []int {
		l := make([]int, n)
		for i := range l {
			l[i] = rng.Intn(6) - 1
		}
		return l
	}
	ctx := context.Background()
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			items := tc.items
			res := segclust.ResultFromLabels(items, labels(len(items)), 0, 0)
			k := len(res.Clusters)
			members := make([][]int, k+1)
			for i, c := range res.ClusterOf {
				if c == segclust.Noise {
					c = k
				}
				members[c] = append(members[c], i)
			}
			want := make([]float64, k+1)
			var total float64
			for g := range members {
				want[g] = scalarSSE(items, members[g], tc.opt)
				if g < k {
					total += want[g]
				}
			}
			if nonFin := tc.name == "non-finite"; nonFin != math.IsNaN(total+want[k]) {
				t.Fatalf("%s: scalar terms %v: a NaN term is expected exactly on the non-finite item set", tc.name, want)
			}
			got := Measure(items, res, tc.opt, workers)
			if !sameFloat(got.TotalSSE, total) || !sameFloat(got.NoisePenalty, want[k]) {
				t.Fatalf("%s, workers %d: Measure = %+v, scalar TotalSSE %v NoisePenalty %v", tc.name, workers, got, total, want[k])
			}
			prev, err := (*State)(nil).Next(ctx, items, segclust.ResultFromLabels(items, labels(len(items)), 0, 0), tc.opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			st, err := prev.Next(ctx, items, res, tc.opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			for g := 0; g < k; g++ {
				if !sameFloat(st.SSE(g), want[g]) {
					t.Fatalf("%s, workers %d: chained Next SSE(%d) = %v, scalar %v", tc.name, workers, g, st.SSE(g), want[g])
				}
			}
			if b := st.Breakdown(); !sameFloat(b.TotalSSE, total) || !sameFloat(b.NoisePenalty, want[k]) {
				t.Fatalf("%s, workers %d: chained Next = %+v, scalar TotalSSE %v NoisePenalty %v", tc.name, workers, b, total, want[k])
			}
		}
	}
}

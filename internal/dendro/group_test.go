package dendro_test

// An auto build groups from its estimation dendrogram: segclust reads every
// ε-neighborhood from the d ≤ ε prefix of the dendrogram's lists
// (Dendrogram.Within) instead of scoring the candidates again, and a cut
// must equal the scored grouping at its ε. These tests live outside package
// dendro because they import internal/params, which imports it.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dendro"
	"repro/internal/geom"
	"repro/internal/geometry"
	"repro/internal/lsdist"
	"repro/internal/params"
	"repro/internal/segclust"
	"repro/internal/spindex"
	"repro/internal/synth"
)

// FuzzGroupFromDendrogram: a grouping that reads its neighborhoods from a
// dendrogram equals the scored grouping over the same index (RunSharedCtx)
// in ClusterOf, Clusters, Removed and DistCalls, and an append onto it
// equals the batch run over every item, DistCalls excepted. The fuzzer
// picks the items — coincident and zero-length ones included, weights in
// {1, 0.1, 0.2, 0.3} — maxEps, ε ≤ maxEps and MinLns, and sel picks the
// backend, the worker count (1 or 3), the temporal weight (0 or 0.05) and
// how many trailing items the append brings. Each item is five bytes: four
// coordinates and a byte choosing the trajectory id, the weight and the
// time span.
func FuzzGroupFromDendrogram(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 0, 0, 1, 10, 1, 5, 0, 2, 10, 2, 10, 5, 5, 5, 5, 3, 5, 5, 5, 5, 4, 0, 0, 10, 0, 15}, 4.0, 2.0, 2.0, byte(13))
	f.Add([]byte{1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 9, 9, 9, 9, 3}, 1.5, 1.5, 1.0, byte(7))
	f.Add([]byte{0, 0, 100, 0, 5, 0, 13, 100, 13, 11, 0, 8, 100, 8, 17, 0, 1, 100, 1, 3, 0, 14, 100, 14, 4}, 20.0, 12.0, 0.6, byte(38))
	f.Add([]byte{}, 3.0, 1.0, 1.0, byte(0))
	f.Fuzz(func(t *testing.T, data []byte, maxEps, eps, minLns float64, sel byte) {
		if !(maxEps > 0) || math.IsInf(maxEps, 0) || !(eps > 0) || eps > maxEps || !(minLns > 0) || math.IsInf(minLns, 0) {
			t.Skip()
		}
		weights := []float64{1, 0.1, 0.2, 0.3}
		var items []segclust.Item
		for k := 0; k+5 <= len(data) && len(items) < 40; k += 5 {
			c := func(b byte) float64 { return float64(int8(b)) }
			b := data[k+4]
			t0 := float64(b/20) * 15
			items = append(items, segclust.Item{
				Seg:    geom.Seg(c(data[k]), c(data[k+1]), c(data[k+2]), c(data[k+3])),
				TrajID: int(b % 5), Weight: weights[b/5%4],
				Span: geometry.Interval{Start: t0, End: t0 + float64(b%3)*10},
			})
		}
		backend := []spindex.Backend{spindex.Grid(), spindex.RTree(), spindex.Brute()}[sel%3]
		workers := []int{1, 3}[sel/3%2]
		wt := []float64{0, 0.05}[sel/6%2]
		p := len(items) - int(sel/12)%(len(items)+1)
		opt := lsdist.DefaultOptions()
		cfg := segclust.Config{Eps: eps, MinLns: minLns, Options: opt, Workers: workers}
		ctx := context.Background()
		what := fmt.Sprintf("index=%s workers=%d wt=%g eps=%g/%g: %d items, %d appended", backend.Name(), workers, wt, eps, maxEps, len(items), len(items)-p)

		shared := segclust.NewSharedIndex(slices.Clone(items[:p]), opt, wt, backend)
		want, err := segclust.RunSharedCtx(ctx, shared, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		den, err := dendro.FromShared(ctx, shared, maxEps, workers)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := segclust.NewIncrementalCtx(ctx, shared, cfg, nil, den)
		if err != nil {
			t.Fatal(err)
		}
		if got := inc.Result(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: grouping from the lists %+v, scored %+v", what, got, want)
		}
		batch, err := segclust.RunSharedCtx(ctx, segclust.NewSharedIndex(items, opt, wt, backend), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inc.AppendCtx(ctx, items[p:])
		if err != nil {
			t.Fatal(err)
		}
		g := *got
		g.DistCalls = batch.DistCalls
		if !reflect.DeepEqual(&g, batch) {
			t.Fatalf("%s: append onto the list-fed grouping %+v, batch %+v", what, got, batch)
		}
	})
}

// FuzzCutOracle: a cut of a dendrogram equals the scored grouping over the
// same index (RunSharedCtx) at the cut's ε, MinLns and MinTrajs in
// ClusterOf, Clusters and Removed; DistCalls is excepted, as a cut scores
// nothing. The fuzzer picks the items — coincident and zero-length ones
// included, weights in {1, 0.1, 0.2, 0.3, 0.4} — maxEps, ε ≤ maxEps,
// MinLns, MinTrajs (0 takes ⌈MinLns⌉), and sel picks the backend. Each item
// is five bytes: four coordinates in fifths and a byte choosing the
// trajectory id and the weight. The first three seeds are the fixture of
// segclust's TestCutAtFractionalWeights, where only an id-order sum
// reaches MinLns.
func FuzzCutOracle(f *testing.F) {
	for sel := range byte(3) {
		f.Add([]byte{0, 0, 5, 0, 5, 0, 12, 5, 12, 6, 0, 5, 5, 5, 22}, 5.0, 5.0, 0.6000000000000001, byte(1), sel)
	}
	f.Add([]byte{1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 9, 9, 9, 9, 3}, 1.5, 1.5, 1.0, byte(0), byte(1))
	f.Add([]byte{0, 0, 100, 0, 5, 0, 13, 100, 13, 11, 0, 8, 100, 8, 17, 0, 1, 100, 1, 3, 0, 14, 100, 14, 4}, 20.0, 12.0, 0.6, byte(2), byte(2))
	f.Add([]byte{}, 3.0, 1.0, 1.0, byte(0), byte(0))
	f.Fuzz(func(t *testing.T, data []byte, maxEps, eps, minLns float64, minTrajs, sel byte) {
		if !(maxEps > 0) || math.IsInf(maxEps, 0) || !(eps > 0) || eps > maxEps || !(minLns > 0) || math.IsInf(minLns, 0) {
			t.Skip()
		}
		weights := []float64{1, 0.1, 0.2, 0.3, 0.4}
		var items []segclust.Item
		for k := 0; k+5 <= len(data) && len(items) < 40; k += 5 {
			c := func(b byte) float64 { return float64(int8(b)) / 5 }
			b := data[k+4]
			items = append(items, segclust.Item{
				Seg:    geom.Seg(c(data[k]), c(data[k+1]), c(data[k+2]), c(data[k+3])),
				TrajID: int(b % 5), Weight: weights[b/5%5],
			})
		}
		backend := []spindex.Backend{spindex.Grid(), spindex.RTree(), spindex.Brute()}[sel%3]
		cfg := segclust.Config{Eps: eps, MinLns: minLns, MinTrajs: int(minTrajs % 8), Options: lsdist.DefaultOptions(), Workers: 1}
		ctx := context.Background()
		shared := segclust.NewSharedIndexFor(items, cfg.Options, backend)
		want, err := segclust.RunSharedCtx(ctx, shared, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		den, err := dendro.FromShared(ctx, shared, maxEps, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := den.CutAt(eps, minLns, cfg.MinTrajs)
		if err != nil {
			t.Fatal(err)
		}
		g := *got
		g.DistCalls = want.DistCalls
		if !reflect.DeepEqual(&g, want) {
			t.Fatalf("index=%s eps=%g/%g MinLns=%v MinTrajs=%d, %d items: cut %+v, scored %+v",
				backend.Name(), eps, maxEps, minLns, cfg.MinTrajs, len(items), got, want)
		}
	})
}

// BenchmarkGroupFromDendrogram times the grouping of an auto build two ways
// on the build-auto input: 800 synth.Hurricanes tracks (seed 1) partitioned
// at CostAdvantage 15 and MinLength 40, a dendrogram at 60, and ε and
// MinLns from params.EstimateEpsDendroCtx over [5, 60]. scored is
// RunSharedCtx: owned candidate queries and the bounded kernel. lists is
// NewIncrementalCtx over the dendrogram: the ε-prefix of each list and a
// count-only candidate query. Both report the grouping's DistCalls as
// dist_calls/op, which must agree.
func BenchmarkGroupFromDendrogram(b *testing.B) {
	hc := synth.DefaultHurricaneConfig()
	hc.NumTracks, hc.Seed = 800, 1
	ccfg := core.DefaultConfig()
	ccfg.Partition.CostAdvantage, ccfg.Partition.MinLength = 15, 40
	items := core.PartitionAll(synth.Hurricanes(hc), ccfg)
	ctx := context.Background()
	shared := segclust.NewSharedIndexFor(items, ccfg.Distance, ccfg.ResolvedBackend())
	den, err := dendro.FromShared(ctx, shared, 60, ccfg.Workers)
	if err != nil {
		b.Fatal(err)
	}
	est, err := params.EstimateEpsDendroCtx(ctx, den, 5, 60, params.AnnealOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ccfg.Eps, ccfg.MinLns = est.Eps, float64(est.MinLnsLo+est.MinLnsHi)/2
	cfg := ccfg.Segclust()
	for _, mode := range []struct {
		name  string
		group func() (*segclust.Result, error)
	}{
		{"scored", func() (*segclust.Result, error) { return segclust.RunSharedCtx(ctx, shared, cfg, nil) }},
		{"lists", func() (*segclust.Result, error) {
			inc, err := segclust.NewIncrementalCtx(ctx, shared, cfg, nil, den)
			if err != nil {
				return nil, err
			}
			return inc.Result(), nil
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			calls := 0
			for i := 0; i < b.N; i++ {
				res, err := mode.group()
				if err != nil {
					b.Fatal(err)
				}
				calls = res.DistCalls
			}
			b.ReportMetric(float64(calls), "dist_calls/op")
		})
	}
}

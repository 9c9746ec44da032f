package segclust

// The Figure-12 oracle suite: the paper's grouping algorithm, run verbatim
// over full-scan neighborhoods, is the specification every production path
// — batch runs at every backend and worker count, the spatiotemporal index,
// RunWithDistance, and Incremental appends — is diffed against, bit for bit
// except DistCalls (the oracle spends n² distance calls on purpose).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/geometry"
	"repro/internal/lsdist"
	"repro/internal/spindex"
)

// figure12 is Figure 12 of the paper: full-scan ε-neighborhoods under dist,
// clusters seeded in item order, each expanded first in, first out, and a
// border item kept by the first cluster that reaches it. Step 3's
// Definition-10 filter and the canonical Result shape come from
// ResultFromLabels (minTrajs ≤ 0 removes C when |PTR(C)| < minLns, so the
// threshold is ⌈minLns⌉).
func figure12(items []Item, dist func(i, j int) float64, eps, minLns float64, minTrajs int) *Result {
	const unclassified = -2
	neighborhood := func(i int) ([]int, float64) {
		var hood []int
		var weight float64
		for j := range items {
			if dist(i, j) <= eps {
				hood = append(hood, j)
				weight += items[j].Weight
			}
		}
		return hood, weight
	}
	labels := make([]int, len(items))
	for i := range labels {
		labels[i] = unclassified
	}
	clusterID := 0
	for i := range items {
		if labels[i] != unclassified {
			continue
		}
		hood, weight := neighborhood(i)
		if weight < minLns {
			labels[i] = Noise
			continue
		}
		// Step 1: seed the cluster with the neighborhood; members an earlier
		// cluster already claimed keep their label.
		var queue []int
		for _, j := range hood {
			switch labels[j] {
			case unclassified:
				labels[j] = clusterID
				if j != i {
					queue = append(queue, j)
				}
			case Noise:
				labels[j] = clusterID
			}
		}
		// Step 2: ExpandCluster.
		for len(queue) > 0 {
			m := queue[0]
			queue = queue[1:]
			hood, weight := neighborhood(m)
			if weight < minLns {
				continue
			}
			for _, x := range hood {
				switch labels[x] {
				case unclassified:
					labels[x] = clusterID
					queue = append(queue, x)
				case Noise:
					labels[x] = clusterID
				}
			}
		}
		clusterID++
	}
	if minTrajs <= 0 {
		minTrajs = int(math.Ceil(minLns))
	}
	return ResultFromLabels(items, labels, minTrajs, 0)
}

// planar is the canonical TRACLUS distance between items, by index.
func planar(items []Item, opt lsdist.Options) func(i, j int) float64 {
	dist := lsdist.New(opt)
	return func(i, j int) float64 { return dist(items[i].Seg, items[j].Seg) }
}

// diffOracle fails unless got equals the oracle's want in every field but
// DistCalls.
func diffOracle(t *testing.T, what string, want, got *Result) {
	t.Helper()
	g := *got
	g.DistCalls = 0
	if !reflect.DeepEqual(want, &g) {
		t.Errorf("%s: differs from Figure 12\noracle: %d clusters, removed %d, labels %v\ngot:    %d clusters, removed %d, labels %v",
			what, want.NumClusters(), want.Removed, want.ClusterOf, got.NumClusters(), got.Removed, got.ClusterOf)
	}
}

// diffWorkers runs run at every worker count, diffs each Result against the
// oracle's want, and checks that DistCalls does not depend on the worker
// count.
func diffWorkers(t *testing.T, what string, want *Result, workers []int, run func(workers int) (*Result, error)) {
	t.Helper()
	calls := -1
	for _, w := range workers {
		got, err := run(w)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", what, w, err)
		}
		diffOracle(t, fmt.Sprintf("%s workers=%d", what, w), want, got)
		if calls >= 0 && got.DistCalls != calls {
			t.Errorf("%s workers=%d: %d distcalls, %d at workers=%d", what, w, got.DistCalls, calls, workers[0])
		}
		calls = got.DistCalls
	}
}

var oracleKinds = []spindex.Backend{spindex.Grid(), spindex.RTree(), spindex.Brute()}

// pointItems is the degenerate-point fixture: three Gaussian blobs of
// points, each a zero-length segment of its own trajectory — the case where
// TRACLUS grouping is point DBSCAN.
func pointItems(rng *rand.Rand) []Item {
	var items []Item
	for _, c := range []geom.Point{geom.Pt(0, 0), geom.Pt(800, 0), geom.Pt(0, 800)} {
		for k := 0; k < 30; k++ {
			p := geom.Pt(c.X+rng.NormFloat64()*8, c.Y+rng.NormFloat64()*8)
			items = append(items, Item{Seg: geom.Segment{Start: p, End: p}, TrajID: len(items), Weight: 1})
		}
	}
	return items
}

// mixedItems is corridors plus random segments plus exact duplicates of some
// of them, so ties, coincident segments and noise all occur.
func mixedItems(rng *rand.Rand) []Item {
	items := corridorItemsSpread(rng, 300, 3, 12, 500)
	for i := 0; i < 60; i++ {
		items = append(items, Item{
			Seg:    geom.Seg(rng.Float64()*800, rng.Float64()*600, rng.Float64()*800, rng.Float64()*600),
			TrajID: 100 + i%7, Weight: 1,
		})
	}
	for i := 0; i < 40; i++ {
		dup := items[rng.Intn(len(items))]
		dup.TrajID = 200 + i
		items = append(items, dup)
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// TestOracleRun diffs Run against Figure 12 over {grid, rtree, brute} ×
// Workers {1, 2, 4, all} on the mixed and the degenerate-point fixtures
// (TestSharedBorder* do the same on the shared-border ladders).
func TestOracleRun(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cases := []struct {
		name  string
		items []Item
		cfg   Config
	}{
		{"mixed", mixedItems(rng), defaultCfg()},
		{"points", pointItems(rng), Config{Eps: 50, MinLns: 4, MinTrajs: 1, Options: lsdist.DefaultOptions()}},
	}
	for _, c := range cases {
		want := figure12(c.items, planar(c.items, c.cfg.Options), c.cfg.Eps, c.cfg.MinLns, c.cfg.MinTrajs)
		if want.NumClusters() < 3 {
			t.Fatalf("%s: fixture yields %d clusters, want at least 3", c.name, want.NumClusters())
		}
		for _, kind := range oracleKinds {
			diffWorkers(t, fmt.Sprintf("%s index=%s", c.name, kind.Name()), want, []int{1, 2, 4, 0}, func(workers int) (*Result, error) {
				cfg := c.cfg
				cfg.Backend, cfg.Workers = kind, workers
				return Run(c.items, cfg)
			})
		}
	}
}

// fractionalItems is the order-sensitive weight fixture: 24 isolated groups
// of three parallel unit segments stacked within ε = 5 of each other, whose
// weights in ascending id order are 0.1, 0.2 and 0.3 while their heights
// are shuffled, so a backend that enumerates a group by position visits its
// weights out of id order. It also returns the ascending sum 0.1+0.2+0.3,
// which in float64 is one ulp above 0.3+0.2+0.1.
func fractionalItems(rng *rand.Rand) ([]Item, float64) {
	w := []float64{0.1, 0.2, 0.3}
	var items []Item
	for g := 0; g < 24; g++ {
		x, y := 20*float64(g%6), 20*float64(g/6)
		for _, k := range rng.Perm(3) {
			h := y + 2.4*float64(k)
			items = append(items, Item{Seg: geom.Seg(x, h, x+1, h), TrajID: g})
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	rank := make(map[int]int)
	for i := range items {
		g := items[i].TrajID
		items[i].Weight = w[rank[g]]
		items[i].TrajID = i
		rank[g]++
	}
	return items, w[0] + w[1] + w[2]
}

// TestOracleFractionalWeights diffs Run over {grid, rtree, brute} × Workers
// {1, 3}, and an append of the second half at the same grid, against
// Figure 12 with MinLns at the ascending sum 0.1+0.2+0.3: a group is a
// cluster exactly when a path sums its neighborhood weights in id order, as
// the oracle does.
func TestOracleFractionalWeights(t *testing.T) {
	items, minLns := fractionalItems(rand.New(rand.NewSource(75)))
	if desc := []float64{0.3, 0.2, 0.1}; desc[0]+desc[1]+desc[2] >= minLns {
		t.Fatal("fixture: the threshold is not order-sensitive")
	}
	cfg := Config{Eps: 5, MinLns: minLns, MinTrajs: 1, Options: lsdist.DefaultOptions()}
	want := figure12(items, planar(items, cfg.Options), cfg.Eps, cfg.MinLns, cfg.MinTrajs)
	if want.NumClusters() != 24 {
		t.Fatalf("fixture yields %d clusters, want 24", want.NumClusters())
	}
	p := len(items) / 2
	for _, kind := range oracleKinds {
		diffWorkers(t, fmt.Sprintf("index=%s", kind.Name()), want, []int{1, 3}, func(workers int) (*Result, error) {
			cfg.Backend, cfg.Workers = kind, workers
			return Run(items, cfg)
		})
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			shared := NewSharedIndexFor(slices.Clone(items[:p]), cfg.Options, kind)
			inc, err := NewIncrementalCtx(context.Background(), shared, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := inc.AppendCtx(context.Background(), items[p:])
			if err != nil {
				t.Fatal(err)
			}
			diffOracle(t, fmt.Sprintf("index=%s workers=%d append after %d", kind.Name(), workers, p), want, got)
		}
	}
}

// fractionalMinLnsItems is the fractional-threshold fixture: four parallel
// segments of length 10 at heights 0, 1, 2 and 3, drawn from trajectories
// {1, 1, 2, 2}. At ε = 5 every segment is core and the four form one
// density-connected set, whose two trajectories fall below MinLns = 2.5.
func fractionalMinLnsItems() []Item {
	items := make([]Item, 4)
	for i := range items {
		y := float64(i)
		items[i] = Item{Seg: geom.Seg(0, y, 10, y), TrajID: 1 + i/2, Weight: 1}
	}
	return items
}

// TestOracleFractionalMinLns: with MinTrajs 0, Figure 12 step 3 removes a
// cluster whose |PTR| is below a fractional MinLns. Run over {grid, rtree,
// brute} × Workers {1, 3}, and an Incremental built on the first two items
// with the other two appended, must remove the one set, as the oracle does.
func TestOracleFractionalMinLns(t *testing.T) {
	items := fractionalMinLnsItems()
	cfg := Config{Eps: 5, MinLns: 2.5, Options: lsdist.DefaultOptions()}
	want := figure12(items, planar(items, cfg.Options), cfg.Eps, cfg.MinLns, 0)
	if want.NumClusters() != 0 || want.Removed != 1 {
		t.Fatalf("fixture: oracle keeps %d clusters and removes %d, want 0 and 1", want.NumClusters(), want.Removed)
	}
	for _, kind := range oracleKinds {
		diffWorkers(t, fmt.Sprintf("index=%s", kind.Name()), want, []int{1, 3}, func(workers int) (*Result, error) {
			cfg.Backend, cfg.Workers = kind, workers
			return Run(items, cfg)
		})
		shared := NewSharedIndexFor(slices.Clone(items[:2]), cfg.Options, kind)
		inc, err := NewIncrementalCtx(context.Background(), shared, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inc.AppendCtx(context.Background(), items[2:])
		if err != nil {
			t.Fatal(err)
		}
		diffOracle(t, fmt.Sprintf("index=%s append after 2", kind.Name()), want, got)
	}
}

// TestTrajectoryThreshold pins Figure 12 step 3's threshold: MinTrajs when
// set, otherwise ⌈MinLns⌉, capped so a MinLns past the int range cannot
// wrap to a negative threshold that would switch the filter off.
func TestTrajectoryThreshold(t *testing.T) {
	cases := []struct {
		minLns   float64
		minTrajs int
		want     int
	}{
		{2, 0, 2},
		{2.5, 0, 3},
		{0.1, 0, 1},
		{2.5, 4, 4},
		{1e19, 0, math.MaxInt32},
	}
	for _, c := range cases {
		if got := TrajectoryThreshold(c.minLns, c.minTrajs); got != c.want {
			t.Errorf("TrajectoryThreshold(%g, %d) = %d, want %d", c.minLns, c.minTrajs, got, c.want)
		}
	}
}

// timedItems gives corridor items time spans in two waves a long gap
// apart, so the temporal term splits what is one planar cluster.
func timedItems(rng *rand.Rand, n int) []Item {
	items := corridorItemsSpread(rng, n, 2, 16, 400)
	for i := range items {
		t0 := rng.Float64() * 300
		if i%3 == 0 {
			t0 += 5000
		}
		items[i].Span = geometry.Interval{Start: t0, End: t0 + rng.Float64()*200}
	}
	return items
}

// spatiotemporal is the oracle's distance under wT: planar plus wT·gap.
func spatiotemporal(items []Item, opt lsdist.Options, wt float64) func(i, j int) float64 {
	sp := planar(items, opt)
	return func(i, j int) float64 { return sp(i, j) + wt*items[i].Span.Gap(items[j].Span) }
}

// TestOracleSpatiotemporal diffs grouping over a spatiotemporal index
// (wT > 0) against Figure 12 under dist + wT·gap.
func TestOracleSpatiotemporal(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	items := timedItems(rng, 400)
	const wt = 0.05
	cfg := defaultCfg()
	want := figure12(items, spatiotemporal(items, cfg.Options, wt), cfg.Eps, cfg.MinLns, 0)
	flat := figure12(items, planar(items, cfg.Options), cfg.Eps, cfg.MinLns, 0)
	if reflect.DeepEqual(want.ClusterOf, flat.ClusterOf) {
		t.Fatal("fixture: the temporal term changes nothing")
	}
	for _, kind := range oracleKinds {
		shared := NewSharedIndex(items, cfg.Options, wt, kind)
		diffWorkers(t, fmt.Sprintf("index=%s", kind.Name()), want, []int{1, 2, 4, 0}, func(workers int) (*Result, error) {
			cfg.Workers = workers
			return RunSharedCtx(context.Background(), shared, cfg, nil)
		})
	}
}

// TestOracleRunWithDistance diffs the custom-distance path against Figure 12
// under the same distance.
func TestOracleRunWithDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	items := mixedItems(rng)
	dist := func(a, b geom.Segment) float64 { return a.Midpoint().Dist(b.Midpoint()) }
	cfg := Config{Eps: 40, MinLns: 4, Options: lsdist.DefaultOptions()}
	want := figure12(items, func(i, j int) float64 { return dist(items[i].Seg, items[j].Seg) }, cfg.Eps, cfg.MinLns, 0)
	diffWorkers(t, "custom distance", want, []int{1, 2, 4, 0}, func(workers int) (*Result, error) {
		cfg.Workers = workers
		return RunWithDistance(items, dist, cfg)
	})
}

// TestOracleIncremental builds an Incremental on a prefix of the items and
// appends the rest in three batches; after every step the Result must be
// Figure 12's over the items so far, and every live neighborhood must hold
// exactly the full scan's ids (appends extend neighborhoods in place, so a
// write past one item's window would corrupt the next item's ids).
func TestOracleIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	all := mixedItems(rng)
	timed := timedItems(rng, len(all))
	cuts := []int{len(all) / 4, len(all) / 2, 2 * len(all) / 3, len(all)}
	cfg := defaultCfg()
	for _, geo := range []string{"planar", "spatiotemporal"} {
		items, dist := all, planar(all, cfg.Options)
		var wt float64
		if geo == "spatiotemporal" {
			items, wt = timed, 0.05
			dist = spatiotemporal(timed, cfg.Options, wt)
		}
		wants := make([]*Result, len(cuts))
		for k, n := range cuts {
			wants[k] = figure12(items[:n], dist, cfg.Eps, cfg.MinLns, 0)
		}
		hoods := make([][]int32, len(items))
		for i := range items {
			for j := range items {
				if dist(i, j) <= cfg.Eps {
					hoods[i] = append(hoods[i], int32(j))
				}
			}
		}
		for _, kind := range oracleKinds {
			for _, workers := range []int{1, 2, 0} {
				what := fmt.Sprintf("%s index=%s workers=%d", geo, kind.Name(), workers)
				cfg.Workers = workers
				shared := NewSharedIndex(slices.Clone(items[:cuts[0]]), cfg.Options, wt, kind)
				inc, err := NewIncrementalCtx(context.Background(), shared, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				got := inc.Result()
				for k, n := range cuts {
					if k > 0 {
						if got, err = inc.AppendCtx(context.Background(), items[cuts[k-1]:n]); err != nil {
							t.Fatal(err)
						}
					}
					diffOracle(t, fmt.Sprintf("%s after %d items", what, n), wants[k], got)
				}
				for i, want := range hoods {
					hood := slices.Clone(inc.hs.hood(i))
					slices.Sort(hood)
					if !slices.Equal(hood, want) {
						t.Fatalf("%s: item %d: live neighborhood %v, full scan %v", what, i, hood, want)
					}
				}
			}
		}
	}
}

// FuzzGroupOracle diffs Run (every backend, one and three workers) and an
// append after a fuzz-chosen prefix against Figure 12 on fuzz-chosen
// segments — coincident and zero-length ones included — ε and MinLns. Each
// segment is five bytes: four coordinates and a trajectory id.
func FuzzGroupOracle(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 0, 0, 1, 10, 1, 1, 0, 2, 10, 2, 2, 5, 5, 5, 5, 3, 5, 5, 5, 5, 4, 0, 0, 10, 0, 5}, 2.0, uint8(2), uint8(3))
	f.Add([]byte{1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 9, 9, 9, 9, 3}, 1.5, uint8(1), uint8(1))
	f.Add([]byte{0, 0, 100, 0, 0, 0, 13, 100, 13, 1, 0, 8, 100, 8, 2, 0, 1, 100, 1, 3, 0, 14, 100, 14, 4}, 5.0, uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, eps float64, minLns, split uint8) {
		if !(eps > 0) || math.IsInf(eps, 0) {
			t.Skip()
		}
		var items []Item
		for k := 0; k+5 <= len(data) && len(items) < 40; k += 5 {
			c := func(b byte) float64 { return float64(int8(b)) }
			items = append(items, Item{Seg: geom.Seg(c(data[k]), c(data[k+1]), c(data[k+2]), c(data[k+3])), TrajID: int(data[k+4] % 5), Weight: 1})
		}
		cfg := Config{Eps: eps, MinLns: float64(1 + minLns%6), Options: lsdist.DefaultOptions()}
		want := figure12(items, planar(items, cfg.Options), cfg.Eps, cfg.MinLns, 0)
		for _, kind := range oracleKinds {
			diffWorkers(t, fmt.Sprintf("index=%s", kind.Name()), want, []int{1, 3}, func(workers int) (*Result, error) {
				cfg.Backend, cfg.Workers = kind, workers
				return Run(items, cfg)
			})
		}
		p := 0
		if len(items) > 0 {
			p = int(split) % len(items)
		}
		shared := NewSharedIndexFor(slices.Clone(items[:p]), cfg.Options, spindex.Grid())
		inc, err := NewIncrementalCtx(context.Background(), shared, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inc.AppendCtx(context.Background(), items[p:])
		if err != nil {
			t.Fatal(err)
		}
		diffOracle(t, fmt.Sprintf("append after %d", p), want, got)
	})
}

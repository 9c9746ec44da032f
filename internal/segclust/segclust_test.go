package segclust

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/geometry"
	"repro/internal/lsdist"
	"repro/internal/spindex"
)

// corridorItems builds n segments along k horizontal corridors, cycling
// trajectory ids so the cardinality filter passes. Segment start positions
// spread over [0, spread], so small spreads give mutually overlapping
// segments and large spreads exercise chaining.
func corridorItems(rng *rand.Rand, n, k, trajs int) []Item {
	return corridorItemsSpread(rng, n, k, trajs, 400)
}

func corridorItemsSpread(rng *rand.Rand, n, k, trajs int, spread float64) []Item {
	items := make([]Item, n)
	for i := range items {
		cy := 100 + 200*float64(i%k)
		x := rng.Float64() * spread
		items[i] = Item{
			Seg:    geom.Seg(x, cy+rng.NormFloat64()*3, x+80, cy+rng.NormFloat64()*3),
			TrajID: i % trajs,
			Weight: 1,
		}
	}
	return items
}

func defaultCfg() Config {
	return Config{Eps: 25, MinLns: 4, Options: lsdist.DefaultOptions()}
}

func TestConfigValidate(t *testing.T) {
	if err := defaultCfg().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Eps: 0, MinLns: 3, Options: lsdist.DefaultOptions()},
		{Eps: -1, MinLns: 3, Options: lsdist.DefaultOptions()},
		{Eps: 10, MinLns: 0, Options: lsdist.DefaultOptions()},
		{Eps: 10, MinLns: 3, Options: lsdist.Options{Weights: lsdist.Weights{Perpendicular: -1}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestConfigValidateTyped pins the typed-error contract: NaN/Inf values —
// which sail through plain sign checks — are rejected, and every rejection
// is a *ConfigError so serving layers can map it to a client error.
func TestConfigValidateTyped(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Config{
		{Eps: nan, MinLns: 3, Options: lsdist.DefaultOptions()},
		{Eps: inf, MinLns: 3, Options: lsdist.DefaultOptions()},
		{Eps: 10, MinLns: nan, Options: lsdist.DefaultOptions()},
		{Eps: 10, MinLns: 3, MinTrajs: -1, Options: lsdist.DefaultOptions()},
		{Eps: 10, MinLns: 3, Options: lsdist.Options{Weights: lsdist.Weights{Perpendicular: nan}}},
	}
	for i, c := range bad {
		err := c.Validate()
		if err == nil {
			t.Errorf("case %d: invalid config accepted", i)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("case %d: error %T is not a *ConfigError", i, err)
		} else if ce.Field == "" || ce.Reason == "" {
			t.Errorf("case %d: incomplete ConfigError %+v", i, ce)
		}
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	if _, err := Run(nil, Config{}); err == nil {
		t.Error("Run accepted zero config")
	}
}

func TestTwoCorridorsTwoClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := corridorItems(rng, 100, 2, 10)
	res, err := Run(items, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 2 {
		t.Fatalf("clusters = %d, want 2", res.NumClusters())
	}
	// Every member of a cluster shares its corridor (same y band).
	for ci, c := range res.Clusters {
		band := items[c.Members[0]].Seg.Start.Y
		for _, m := range c.Members {
			y := items[m].Seg.Start.Y
			if y-band > 50 || band-y > 50 {
				t.Errorf("cluster %d mixes corridors: y=%v vs %v", ci, y, band)
			}
		}
	}
}

func TestNoiseDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := corridorItems(rng, 40, 1, 10)
	// Add isolated far-away segments.
	for i := 0; i < 5; i++ {
		items = append(items, Item{
			Seg:    geom.Seg(5000+float64(i)*500, 0, 5080+float64(i)*500, 0),
			TrajID: 100 + i,
			Weight: 1,
		})
	}
	res, err := Run(items, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.NoiseCount() < 5 {
		t.Errorf("noise = %d, want >= 5", res.NoiseCount())
	}
	for i := 40; i < 45; i++ {
		if res.ClusterOf[i] != Noise {
			t.Errorf("isolated segment %d labelled cluster %d", i, res.ClusterOf[i])
		}
	}
}

func TestTrajectoryCardinalityFilterDefinition10(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// A dense corridor whose segments all come from ONE trajectory must be
	// rejected (Figure 12 step 3).
	items := corridorItems(rng, 40, 1, 1)
	res, err := Run(items, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 0 {
		t.Errorf("single-trajectory cluster survived: %d clusters", res.NumClusters())
	}
	if res.Removed == 0 {
		t.Error("Removed count not incremented")
	}
	// All members must be relabelled noise.
	for i, l := range res.ClusterOf {
		if l != Noise {
			t.Errorf("item %d labelled %d after filtering", i, l)
		}
	}
}

func TestMinTrajsOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := corridorItems(rng, 40, 1, 3) // three distinct trajectories
	cfg := defaultCfg()
	cfg.MinTrajs = 2
	res, err := Run(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 1 {
		t.Fatalf("clusters = %d with MinTrajs=2", res.NumClusters())
	}
	cfg.MinTrajs = 4
	res, err = Run(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 0 {
		t.Errorf("clusters = %d with MinTrajs=4, want 0", res.NumClusters())
	}
}

func TestWeightedNeighborhoods(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := corridorItemsSpread(rng, 30, 1, 10, 60) // mutually overlapping
	cfg := defaultCfg()
	cfg.MinLns = 10
	// With unit weights and MinLns=10 the corridor clusters (30 segments).
	res, err := Run(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 1 {
		t.Fatalf("unit weights: clusters = %d", res.NumClusters())
	}
	// Down-weight everything: weighted cardinality ~3 < 10 → no cluster.
	light := make([]Item, len(items))
	copy(light, items)
	for i := range light {
		light[i].Weight = 0.1
	}
	res, err = Run(light, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 0 {
		t.Errorf("down-weighted: clusters = %d, want 0", res.NumClusters())
	}
}

func TestIndexEquivalence(t *testing.T) {
	// The grid, R-tree, and full-scan paths must produce identical
	// clusterings — the prefilter is sound and complete.
	rng := rand.New(rand.NewSource(6))
	items := corridorItems(rng, 150, 3, 12)
	// Mix in random segments.
	for i := 0; i < 50; i++ {
		items = append(items, Item{
			Seg: geom.Seg(rng.Float64()*1000, rng.Float64()*600,
				rng.Float64()*1000, rng.Float64()*600),
			TrajID: 200 + i,
			Weight: 1,
		})
	}
	var results []*Result
	for _, kind := range []spindex.Backend{spindex.Brute(), spindex.Grid(), spindex.RTree()} {
		cfg := defaultCfg()
		cfg.Backend = kind
		res, err := Run(items, cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for k := 1; k < len(results); k++ {
		if len(results[k].ClusterOf) != len(results[0].ClusterOf) {
			t.Fatal("length mismatch")
		}
		for i := range results[0].ClusterOf {
			if results[k].ClusterOf[i] != results[0].ClusterOf[i] {
				t.Fatalf("index kind %d disagrees at item %d: %d vs %d",
					k, i, results[k].ClusterOf[i], results[0].ClusterOf[i])
			}
		}
	}
}

func TestCoreNeighborhoodInvariants(t *testing.T) {
	// Density-connected set invariants (Definitions 5–9):
	//  (a) mutually ε-close CORE segments share a cluster (cores are
	//      mutually density-reachable);
	//  (b) no neighbor of a core segment is noise (it is at least
	//      directly density-reachable). Border segments between two
	//      clusters may land in either — DBSCAN's well-known ambiguity —
	//      so only core-core pairs are checked for equality.
	rng := rand.New(rand.NewSource(7))
	items := corridorItems(rng, 100, 2, 10)
	cfg := defaultCfg()
	cfg.MinTrajs = 1 // keep every density-connected set visible
	res, err := Run(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist := lsdist.New(cfg.Options)
	hoods := make([][]int, len(items))
	core := make([]bool, len(items))
	for i := range items {
		for j := range items {
			if dist(items[i].Seg, items[j].Seg) <= cfg.Eps {
				hoods[i] = append(hoods[i], j)
			}
		}
		core[i] = float64(len(hoods[i])) >= cfg.MinLns
	}
	for i := range items {
		if !core[i] {
			continue
		}
		if res.ClusterOf[i] == Noise {
			t.Fatalf("core segment %d labelled noise", i)
		}
		for _, j := range hoods[i] {
			if core[j] && res.ClusterOf[j] != res.ClusterOf[i] {
				t.Fatalf("mutually close cores %d and %d in clusters %d and %d",
					i, j, res.ClusterOf[i], res.ClusterOf[j])
			}
			if res.ClusterOf[j] == Noise {
				t.Fatalf("neighbor %d of core %d labelled noise", j, i)
			}
		}
	}
}

func TestClustersDisjointAndCovering(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	items := corridorItems(rng, 120, 3, 10)
	res, err := Run(items, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for ci, c := range res.Clusters {
		for _, m := range c.Members {
			if prev, dup := seen[m]; dup {
				t.Fatalf("item %d in clusters %d and %d", m, prev, ci)
			}
			seen[m] = ci
			if res.ClusterOf[m] != ci {
				t.Fatalf("ClusterOf[%d] = %d, member of %d", m, res.ClusterOf[m], ci)
			}
		}
	}
	clustered := 0
	for _, l := range res.ClusterOf {
		if l != Noise {
			clustered++
		}
	}
	if clustered != len(seen) {
		t.Errorf("membership mismatch: %d vs %d", clustered, len(seen))
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := corridorItems(rng, 80, 2, 8)
	a, err := Run(items, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(items, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.ClusterOf {
		if a.ClusterOf[i] != b.ClusterOf[i] {
			t.Fatal("non-deterministic clustering")
		}
	}
}

func TestEmptyAndSingleInput(t *testing.T) {
	res, err := Run(nil, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 0 || len(res.ClusterOf) != 0 {
		t.Error("empty input produced clusters")
	}
	res, err = Run([]Item{{Seg: geom.Seg(0, 0, 10, 0), TrajID: 1, Weight: 1}}, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 0 || res.NoiseCount() != 1 {
		t.Error("single segment should be noise")
	}
}

func TestItemsFromSegments(t *testing.T) {
	segs := []geom.Segment{geom.Seg(0, 0, 1, 0), geom.Seg(1, 0, 2, 0)}
	items := ItemsFromSegments(segs)
	if len(items) != 2 || items[0].TrajID == items[1].TrajID {
		t.Errorf("ItemsFromSegments = %+v", items)
	}
	for _, it := range items {
		if it.Weight != 1 {
			t.Error("weight not 1")
		}
	}
}

func TestNeighborhoodWeightsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	items := corridorItems(rng, 60, 2, 6)
	opt := lsdist.DefaultOptions()
	const eps = 25.0
	got := NewSharedIndexFor(items, opt, spindex.Grid()).NeighborhoodWeights(eps, 2)
	dist := lsdist.New(opt)
	for i := range items {
		var want float64
		for j := range items {
			if dist(items[i].Seg, items[j].Seg) <= eps {
				want += items[j].Weight
			}
		}
		if got[i] != want {
			t.Fatalf("NeighborhoodWeights[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestSharedIndexReuseAcrossEps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := corridorItems(rng, 60, 2, 6)
	opt := lsdist.DefaultOptions()
	shared := NewSharedIndexFor(items, opt, spindex.Grid())
	for _, eps := range []float64{10, 25, 40} {
		got := shared.NeighborhoodWeights(eps, 0)
		want := NewSharedIndexFor(items, opt, spindex.Brute()).NeighborhoodWeights(eps, 1)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("eps=%v item %d: %v != %v", eps, i, got[i], want[i])
			}
		}
	}
}

func TestDistCallsCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	items := corridorItems(rng, 50, 1, 10)
	scan, _ := Run(items, Config{Eps: 25, MinLns: 4, Options: lsdist.DefaultOptions(), Backend: spindex.Brute()})
	grid, _ := Run(items, defaultCfg())
	if scan.DistCalls == 0 || grid.DistCalls == 0 {
		t.Fatal("DistCalls not counted")
	}
	if grid.DistCalls > scan.DistCalls {
		t.Errorf("grid (%d) should not exceed scan (%d)", grid.DistCalls, scan.DistCalls)
	}
}

// TestRunWithDistanceScoresEachPairOnce pins the half-pair pass on the
// custom-distance path: a full scan refines all n² candidate pairs, which is
// what DistCalls reports, but dist runs once per unordered pair, self pairs
// included, and the clustering is the kernel path's.
func TestRunWithDistanceScoresEachPairOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	items := corridorItems(rng, 120, 2, 6)
	cfg := Config{Eps: 25, MinLns: 4, Options: lsdist.DefaultOptions(), Backend: spindex.Brute(), Workers: 1}
	dist := lsdist.New(cfg.Options)
	calls := 0
	got, err := RunWithDistance(items, func(a, b geom.Segment) float64 {
		calls++
		return dist(a, b)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(items)
	if calls != n*(n+1)/2 {
		t.Errorf("dist ran %d times, want n(n+1)/2 = %d", calls, n*(n+1)/2)
	}
	if got.DistCalls != n*n {
		t.Errorf("DistCalls = %d, want n² = %d", got.DistCalls, n*n)
	}
	want, err := Run(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("custom-distance clustering differs from the kernel path's")
	}
}

// TestCursorBoundedScoring pins Cursor.DistBlockWithin to the exact
// Cursor.DistBlock on a planar and a spatiotemporal index: at any bound a
// pair is within it exactly when its exact distance is, and then carries
// that distance bit for bit; and scoring j from i gives the bits scoring i
// from j does. On the spatiotemporal index the wT·gap term is
// added after the bounded spatial block; being ≥ 0, it keeps a pair that
// stopped past the bound past it.
func TestCursorBoundedScoring(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	items := make([]Item, 300)
	ids := make([]int, len(items))
	for i := range items {
		x, y := rng.Float64()*400, rng.Float64()*400
		items[i] = Item{Seg: geom.Seg(x, y, x+rng.NormFloat64()*30, y+rng.NormFloat64()*30), TrajID: i, Weight: 1}
		t0 := rng.Float64() * 1000
		items[i].Span = geometry.Interval{Start: t0, End: t0 + rng.Float64()*100}
		ids[i] = i
	}
	opt := lsdist.DefaultOptions()
	for name, shared := range map[string]*SharedIndex{
		"planar":         NewSharedIndexFor(items, opt, spindex.Grid()),
		"spatiotemporal": NewSharedIndex(items, opt, 0.05, spindex.Grid()),
	} {
		c := shared.Cursor()
		var exact, got, back []float64
		for i := range items {
			exact = c.DistBlock(i, ids, exact)
			for _, bound := range []float64{10, 30, exact[(i+1)%len(ids)]} {
				got = c.DistBlockWithin(i, ids, bound, got)
				for k, j := range ids {
					if (got[k] <= bound) != (exact[k] <= bound) ||
						exact[k] <= bound && math.Float64bits(got[k]) != math.Float64bits(exact[k]) {
						t.Fatalf("%s: item %d vs %d at bound %v: bounded %v, exact %v", name, i, j, bound, got[k], exact[k])
					}
					// The other direction scores the same bits: the grouping
					// scores each pair from one end only.
					back = c.DistBlockWithin(j, []int{i}, bound, back)
					if math.Float64bits(back[0]) != math.Float64bits(got[k]) {
						t.Fatalf("%s: at bound %v item %d vs %d scores %v, %d vs %d %v", name, bound, i, j, got[k], j, i, back[0])
					}
				}
			}
		}
	}
}

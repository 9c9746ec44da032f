package dendro

// Extend ≡ FromShared: a dendrogram extended over appended items must be
// bit-identical to one built from scratch over the same items — offsets,
// neighbor ids and distances, running weight sums, and the replay log —
// under every backend, worker count and geometry, after any append
// schedule; and every extended epoch must cut exactly as a fresh grouping
// run does. DistCalls is the one field that differs (the extension queries
// only the appended items); the tests report it, they do not compare it.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/geometry"
	"repro/internal/lsdist"
	"repro/internal/segclust"
	"repro/internal/spindex"
	"repro/internal/synth"
)

// extendScene is one geometry's item set: the spatiotemporal scene's items
// carry spans, and only it sets wt.
type extendScene struct {
	name   string
	items  []segclust.Item
	wt     float64
	maxEps float64
	cuts   []float64
}

func extendScenes(t *testing.T) []extendScene {
	t.Helper()
	ccfg := core.DefaultConfig()
	ccfg.Partition.CostAdvantage, ccfg.Partition.MinLength = 15, 40
	timed, err := core.PartitionAllCtx(context.Background(),
		synth.TimedCorridorScene(3, 12, 24, 5, 7, 500, 10), ccfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Geodesic input clusters in the working frame it projects into; the
	// dendrogram sees planar items in meters.
	gps := synth.GPSTracks(3, 10, 25, 7)
	bounds, _ := geom.BoundsOf(gps)
	frame := geometry.FrameFor(bounds)
	for i := range gps {
		gps[i].Points = frame.ProjectTrajectory(gps[i].Points)
	}
	gcfg := core.DefaultConfig()
	gcfg.Partition.MinLength = 100
	return []extendScene{
		{name: "planar", items: testItems(t), maxEps: 60, cuts: []float64{12, 28, 45}},
		{name: "spatiotemporal", items: timed, wt: 0.01, maxEps: 60, cuts: []float64{12, 28, 45}},
		{name: "geodesic", items: core.PartitionAll(gps, gcfg), maxEps: 300, cuts: []float64{60, 150, 250}},
	}
}

// index builds a fresh shared index over the scene's first n items.
func (sc extendScene) index(n int, backend spindex.Backend) *segclust.SharedIndex {
	return segclust.NewSharedIndex(slices.Clone(sc.items[:n]), lsdist.DefaultOptions(), sc.wt, backend)
}

// sameStructure fails unless a and b are bit-identical merge structures.
func sameStructure(t *testing.T, label string, want, got *Dendrogram) {
	t.Helper()
	switch {
	case !reflect.DeepEqual(want.items, got.items):
		t.Errorf("%s: items differ", label)
	case want.maxEps != got.maxEps:
		t.Errorf("%s: MaxEps %g, want %g", label, got.maxEps, want.maxEps)
	case !reflect.DeepEqual(want.off, got.off):
		t.Errorf("%s: list offsets differ", label)
	case !reflect.DeepEqual(want.ids, got.ids):
		t.Errorf("%s: neighbor ids differ", label)
	case !reflect.DeepEqual(want.dist, got.dist):
		t.Errorf("%s: neighbor distances differ", label)
	case !reflect.DeepEqual(want.cum, got.cum):
		t.Errorf("%s: running weight sums differ", label)
	case !reflect.DeepEqual(want.edges, got.edges):
		t.Errorf("%s: replay logs differ (%d vs %d edges)", label, len(got.edges), len(want.edges))
	}
}

// extendChain builds a dendrogram over the first base items, then extends
// it once per batch through an index grown by the incremental grouping —
// the appender's path — and hands every epoch to check.
func extendChain(t *testing.T, sc extendScene, backend spindex.Backend, workers, base int, batches []int,
	check func(epoch int, d *Dendrogram)) {
	t.Helper()
	ctx := context.Background()
	shared := sc.index(base, backend)
	d, err := FromShared(ctx, shared, sc.maxEps, workers)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := segclust.NewIncrementalCtx(ctx, shared, segclust.Config{
		Eps: sc.cuts[1], MinLns: 4, Options: lsdist.DefaultOptions(), Workers: workers}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := base
	for e, size := range batches {
		if _, err := inc.AppendCtx(ctx, sc.items[n:n+size]); err != nil {
			t.Fatal(err)
		}
		n += size
		if d, err = d.Extend(ctx, inc.Shared(), workers); err != nil {
			t.Fatal(err)
		}
		check(e+1, d)
	}
}

func TestExtendEqualsBuild(t *testing.T) {
	ctx := context.Background()
	const minLns = 4
	for _, sc := range extendScenes(t) {
		n := len(sc.items)
		if n < 40 {
			t.Fatalf("%s: scene too small: %d items", sc.name, n)
		}
		schedules := map[string][]int{
			"one":   {n - 2*n/3},
			"three": {n / 10, 1, n - 2*n/3 - n/10 - 1},
			"empty": {0},
		}
		for bname, backend := range backends() {
			for _, workers := range []int{1, 2, 0} {
				for sname, batches := range schedules {
					label := fmt.Sprintf("%s/%s/w%d/%s", sc.name, bname, workers, sname)
					base := n
					for _, b := range batches {
						base -= b
					}
					extendChain(t, sc, backend, workers, base, batches, func(epoch int, got *Dendrogram) {
						at := fmt.Sprintf("%s/epoch%d", label, epoch)
						want, err := FromShared(ctx, sc.index(got.Len(), backend), sc.maxEps, workers)
						if err != nil {
							t.Fatal(err)
						}
						sameStructure(t, at, want, got)
						if epoch == len(batches) && workers == 1 && bname == "grid" {
							t.Logf("%s: DistCalls extended %d, rebuilt %d", at, got.DistCalls(), want.DistCalls())
						}
						for _, eps := range sc.cuts {
							cut, err := got.CutAt(eps, minLns, 0)
							if err != nil {
								t.Fatal(err)
							}
							fresh, err := segclust.RunSharedCtx(ctx, sc.index(got.Len(), backend), segclust.Config{
								Eps: eps, MinLns: minLns, Options: lsdist.DefaultOptions(), Workers: workers}, nil)
							if err != nil {
								t.Fatal(err)
							}
							sameResult(t, fmt.Sprintf("%s/eps=%g", at, eps), fresh, cut)
						}
					})
				}
			}
		}
	}
}

// TestExtendLeavesReceiver: the extension never writes the structure it
// extends (earlier epochs keep serving it), an empty extension returns the
// receiver itself, and an index that does not start with the receiver's
// items is refused.
func TestExtendLeavesReceiver(t *testing.T) {
	ctx := context.Background()
	items := testItems(t)
	base := len(items) * 2 / 3
	opt := lsdist.DefaultOptions()
	d, err := FromShared(ctx, segclust.NewSharedIndexFor(slices.Clone(items[:base]), opt, spindex.Grid()), 45, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	edges := slices.Clone(d.edges)
	cum := slices.Clone(d.cum)
	x, err := d.Extend(ctx, segclust.NewSharedIndexFor(items, opt, spindex.Grid()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if x == d || x.Len() != len(items) {
		t.Fatalf("extension covers %d items, want %d in a new structure", x.Len(), len(items))
	}
	if !reflect.DeepEqual(d.Snapshot(), snap) || !reflect.DeepEqual(d.edges, edges) || !reflect.DeepEqual(d.cum, cum) {
		t.Fatal("Extend wrote the receiver")
	}
	if same, err := d.Extend(ctx, segclust.NewSharedIndexFor(items[:base], opt, spindex.Grid()), 0); err != nil || same != d {
		t.Fatalf("empty extension: %v, %v; want the receiver", same == d, err)
	}
	if _, err := d.Extend(ctx, segclust.NewSharedIndexFor(items[1:], opt, spindex.Grid()), 0); err == nil {
		t.Error("Extend accepted an index whose prefix is not the dendrogram's items")
	}
	if _, err := d.Extend(ctx, segclust.NewSharedIndexFor(items[:base-1], opt, spindex.Grid()), 0); err == nil {
		t.Error("Extend accepted an index smaller than the dendrogram")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := d.Extend(cancelled, segclust.NewSharedIndexFor(items, opt, spindex.Grid()), 0); err == nil {
		t.Error("Extend under a cancelled context succeeded")
	}
}

// FuzzDendroExtend mirrors FuzzAppendOrderings for the merge structure:
// fuzz-chosen items — coincident and zero-length ones included, weights
// in {0.5, 1, 1.5, 2} — and maxEps, cut into a fuzz-chosen append
// schedule; the chain of extensions over the grown index must equal one
// build over all items. Each item is five bytes: four coordinates and a
// byte choosing the trajectory id and weight.
func FuzzDendroExtend(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 0, 0, 1, 10, 1, 1, 0, 2, 10, 2, 2, 5, 5, 5, 5, 3, 5, 5, 5, 5, 4, 0, 0, 10, 0, 5}, 4.0, []byte{2, 1, 1})
	f.Add([]byte{1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 9, 9, 9, 9, 3}, 1.5, []byte{0, 0})
	f.Add([]byte{0, 0, 100, 0, 0, 0, 13, 100, 13, 1, 0, 8, 100, 8, 2, 0, 1, 100, 1, 3, 0, 14, 100, 14, 4}, 20.0, []byte{1, 4})
	f.Add([]byte{}, 3.0, []byte{})
	f.Fuzz(func(t *testing.T, data []byte, maxEps float64, schedule []byte) {
		if !(maxEps > 0) || math.IsInf(maxEps, 0) {
			t.Skip()
		}
		var items []segclust.Item
		for k := 0; k+5 <= len(data) && len(items) < 40; k += 5 {
			c := func(b byte) float64 { return float64(int8(b)) }
			items = append(items, segclust.Item{
				Seg:    geom.Seg(c(data[k]), c(data[k+1]), c(data[k+2]), c(data[k+3])),
				TrajID: int(data[k+4] % 5), Weight: float64(1+data[k+4]/5%4) / 2})
		}
		// The first schedule byte picks the backend and the base prefix;
		// each later one takes the next (b mod 5) items (an empty batch
		// included), and whatever is left lands in one last batch.
		var sel byte
		if len(schedule) > 0 {
			sel, schedule = schedule[0], schedule[1:]
		}
		backend := []spindex.Backend{spindex.Grid(), spindex.RTree(), spindex.Brute()}[sel%3]
		base := int(sel/3) % (len(items) + 1)
		n := base
		var batches []int
		for _, b := range schedule {
			size := min(int(b%5), len(items)-n)
			batches, n = append(batches, size), n+size
		}
		if n < len(items) || len(batches) == 0 {
			batches = append(batches, len(items)-n)
		}
		sc := extendScene{name: "fuzz", items: items, maxEps: maxEps, cuts: []float64{maxEps / 2, maxEps}}
		ctx := context.Background()
		want, err := FromShared(ctx, sc.index(len(items), backend), maxEps, 1)
		if err != nil {
			t.Fatal(err)
		}
		extendChain(t, sc, backend, 1, base, batches, func(epoch int, got *Dendrogram) {
			if epoch == len(batches) {
				sameStructure(t, fmt.Sprintf("base %d, batches %v", base, batches), want, got)
			}
		})
	})
}

// BenchmarkDendroExtend times the append-path maintenance of the merge
// structure — a one-trajectory extension of a 400-track hurricane
// dendrogram at maxEps 60, over the index the append grew — beside the
// FromShared rebuild over the same grown index that it replaces.
func BenchmarkDendroExtend(b *testing.B) {
	cfg := synth.DefaultHurricaneConfig()
	cfg.NumTracks = 401
	ccfg := core.DefaultConfig()
	ccfg.Partition.CostAdvantage, ccfg.Partition.MinLength = 15, 40
	items := core.PartitionAll(synth.Hurricanes(cfg), ccfg)
	base := len(core.PartitionAll(synth.Hurricanes(cfg)[:400], ccfg))
	ctx := context.Background()
	opt := lsdist.DefaultOptions()
	shared := segclust.NewSharedIndexFor(slices.Clone(items[:base]), opt, spindex.Grid())
	d, err := FromShared(ctx, shared, 60, 0)
	if err != nil {
		b.Fatal(err)
	}
	inc, err := segclust.NewIncrementalCtx(ctx, shared, segclust.Config{Eps: 30, MinLns: 6, Options: opt}, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := inc.AppendCtx(ctx, items[base:]); err != nil {
		b.Fatal(err)
	}
	b.Run("mode=extend", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Extend(ctx, inc.Shared(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mode=rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FromShared(ctx, inc.Shared(), 60, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package service

// Serving-layer half of the incremental-append contract: epochs version the
// model, appends fast-forward the lineage, the appended model equals a
// from-scratch build over the concatenated data, the pre-append dendrogram
// is never served at a later epoch (its extension is), and the snapshot
// (format v4) carries the epoch across export/import.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	traclus "repro"
	"repro/internal/segclust"
	"repro/internal/synth"
)

// appendSet returns trajectories to grow trainingSet models with — same
// corridor scene, disjoint ids.
func appendSet() []traclus.Trajectory {
	extra := probeSet()
	for i := range extra {
		extra[i].ID += 5000
	}
	return extra
}

func TestModelAppendMatchesBatchBuild(t *testing.T) {
	base, extra := trainingSet(), appendSet()
	m, err := BuildCtx(context.Background(), "grow", base, buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 0 || !m.Appendable() {
		t.Fatalf("fresh build: epoch %d appendable %v, want 0 true", m.Epoch(), m.Appendable())
	}
	next, err := m.Append(context.Background(), extra)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := BuildCtx(context.Background(), "batch", append(append([]traclus.Trajectory{}, base...), extra...), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ns, bs := next.Summary(), batch.Summary()
	if ns.Epoch != 1 {
		t.Errorf("Epoch = %d, want 1", ns.Epoch)
	}
	if ns.Clusters != bs.Clusters || ns.TotalSegments != bs.TotalSegments ||
		ns.NoiseSegments != bs.NoiseSegments || ns.RemovedClusters != bs.RemovedClusters ||
		ns.Trajectories != bs.Trajectories || ns.Points != bs.Points ||
		ns.QMeasure != bs.QMeasure {
		t.Errorf("appended summary diverges from batch build:\nappend: %+v\nbatch:  %+v", ns, bs)
	}
	// Every Formula 11 term, bit for bit: the appended epoch's quality was
	// advanced from the build's, the batch model's scored from scratch.
	if len(ns.ClusterStats) != len(bs.ClusterStats) {
		t.Fatalf("appended model has %d cluster stats, batch %d", len(ns.ClusterStats), len(bs.ClusterStats))
	}
	for i, want := range bs.ClusterStats {
		if got := ns.ClusterStats[i]; math.Float64bits(got.SSE) != math.Float64bits(want.SSE) {
			t.Errorf("cluster %d: appended SSE %v, batch %v", i, got.SSE, want.SSE)
		}
	}
	if a, b := next.Result().NoisePenalty(), batch.Result().NoisePenalty(); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("appended NoisePenalty %v, batch %v", a, b)
	}
	// The old epoch keeps serving its own consistent pre-append view.
	if got := m.Summary(); got.Epoch != 0 || got.Trajectories != len(base) {
		t.Errorf("pre-append model changed: %+v", got)
	}
	// Classification on the new epoch is bit-identical to the batch model.
	probes := probeSet()
	want := batch.ClassifyBatch(context.Background(), probes, 0)
	got := next.ClassifyBatch(context.Background(), probes, 0)
	for i := range want {
		if got[i].Cluster != want[i].Cluster ||
			math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			t.Fatalf("probe %d: appended model classified (%d, %x), batch (%d, %x)",
				i, got[i].Cluster, math.Float64bits(got[i].Distance), want[i].Cluster, math.Float64bits(want[i].Distance))
		}
	}
}

// TestModelAppendFastForwards pins the lineage rule: appending through an
// older epoch's handle applies on the newest epoch, so history never forks.
func TestModelAppendFastForwards(t *testing.T) {
	m, err := BuildCtx(context.Background(), "ff", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	extra := appendSet()
	e1, err := m.Append(context.Background(), extra[:3])
	if err != nil {
		t.Fatal(err)
	}
	// Append through m (epoch 0), not e1: must land on top of e1's state.
	e2, err := m.Append(context.Background(), extra[3:])
	if err != nil {
		t.Fatal(err)
	}
	if e1.Epoch() != 1 || e2.Epoch() != 2 {
		t.Fatalf("epochs = %d, %d, want 1, 2", e1.Epoch(), e2.Epoch())
	}
	if want := len(trainingSet()) + len(extra); e2.Summary().Trajectories != want {
		t.Errorf("fast-forwarded append lost data: %d trajectories, want %d", e2.Summary().Trajectories, want)
	}
}

// TestAppendedModelServesExtendedDendrogram is the staleness guard: after
// an append, sweep queries must answer over the post-append item set — a
// pre-append merge structure cut would silently drop the appended data. The
// appended epoch carries the swept head's dendrogram extended, bit-identical
// to a fresh build over the post-append items, and its snapshot omits it;
// the pre-append structure is neither served nor mutated. A model never
// swept before its append still carries none.
func TestAppendedModelServesExtendedDendrogram(t *testing.T) {
	ctx := context.Background()
	m, err := BuildCtx(context.Background(), "stale", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Materialise the pre-append dendrogram the way a sweep request would.
	pre, err := m.DendrogramAt(ctx, 45)
	if err != nil {
		t.Fatal(err)
	}
	preSnap, preEdges := pre.Snapshot(), pre.Edges()
	next, err := m.Append(ctx, appendSet())
	if err != nil {
		t.Fatal(err)
	}
	if next.Dendrogram() == nil {
		t.Fatal("appended model carries no merge structure; the swept head's should have been extended")
	}
	post, err := next.DendrogramAt(ctx, 45)
	if err != nil {
		t.Fatal(err)
	}
	if post != next.Dendrogram() {
		t.Error("sweep on the appended model rebuilt its extended dendrogram")
	}
	if post == pre {
		t.Fatal("appended model served the pre-append dendrogram")
	}
	batch, err := BuildCtx(context.Background(), "stale-batch", append(trainingSet(), appendSet()...), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := batch.DendrogramAt(ctx, 45)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(post.Snapshot(), fresh.Snapshot()) || post.Edges() != fresh.Edges() {
		t.Error("extended dendrogram differs from a fresh build over the post-append items")
	}
	if got, want := len(post.Items()), next.Summary().TotalSegments; got != want {
		t.Errorf("post-append dendrogram covers %d items, want %d (the full appended set)", got, want)
	}
	if got, want := len(pre.Items()), m.Summary().TotalSegments; got != want {
		t.Errorf("pre-append dendrogram mutated: %d items, want %d", got, want)
	}
	if !reflect.DeepEqual(pre.Snapshot(), preSnap) || pre.Edges() != preEdges {
		t.Error("pre-append dendrogram mutated by the extension")
	}
	// And the sweep surface built on it answers for the appended set too.
	cut, err := next.ClustersAt(ctx, buildConfig().Eps)
	if err != nil {
		t.Fatal(err)
	}
	if cut.TotalSegments != next.Summary().TotalSegments {
		t.Errorf("ClustersAt after append covers %d segments, want %d", cut.TotalSegments, next.Summary().TotalSegments)
	}
	// The persistence rule: an appended epoch's snapshot carries no merge
	// structure, even one extended from a swept head.
	sm, err := next.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sm.Epoch != 1 || sm.Dendro != nil {
		t.Errorf("epoch-%d snapshot carries a dendrogram: %v", sm.Epoch, sm.Dendro != nil)
	}

	unswept, err := BuildCtx(context.Background(), "unswept", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next, err = unswept.Append(ctx, appendSet()); err != nil {
		t.Fatal(err)
	}
	if next.Dendrogram() != nil {
		t.Error("append of a never-swept model produced a dendrogram")
	}
}

func TestSnapshotLoadedModelNotAppendable(t *testing.T) {
	m, err := BuildCtx(context.Background(), "frozen", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Appendable() {
		t.Fatal("snapshot-loaded model claims to be appendable")
	}
	if _, err := loaded.Append(context.Background(), appendSet()); !errors.Is(err, ErrNotAppendable) {
		t.Fatalf("Append on a loaded model: %v, want ErrNotAppendable", err)
	}
}

// TestSnapshotCarriesEpoch pins the format v4 field end to end: an appended
// model exports its epoch, the import restores it, and classification on
// the restored replica is bit-identical to the appended original.
func TestSnapshotCarriesEpoch(t *testing.T) {
	m, err := BuildCtx(context.Background(), "epoch", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	next, err := m.Append(context.Background(), appendSet())
	if err != nil {
		t.Fatal(err)
	}
	data, err := next.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Summary().Epoch; got != 1 {
		t.Errorf("restored epoch = %d, want 1", got)
	}
	probes := probeSet()
	want := next.ClassifyBatch(context.Background(), probes, 0)
	got := loaded.ClassifyBatch(context.Background(), probes, 0)
	for i := range want {
		if got[i].Cluster != want[i].Cluster ||
			math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			t.Fatalf("probe %d: restored replica classified (%d, %x), appended original (%d, %x)",
				i, got[i].Cluster, math.Float64bits(got[i].Distance), want[i].Cluster, math.Float64bits(want[i].Distance))
		}
	}
}

// TestConcurrentAppendAndClassify drives appends and classifies (plus sweep
// builds) concurrently under the race detector: an append must never
// disturb readers of already-published epochs — they share the appender's
// segment index, which readers query only through their epoch's immutable
// derived state.
func TestConcurrentAppendAndClassify(t *testing.T) {
	ctx := context.Background()
	m, err := BuildCtx(context.Background(), "racey", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	extra := appendSet()
	probes := probeSet()
	const chunks = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers hammer the published epochs while the writer appends.
	published := make(chan *Model, chunks)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := m
			for {
				select {
				case <-stop:
					return
				case next := <-published:
					cur = next
				default:
				}
				res := cur.ClassifyBatch(ctx, probes, 2)
				for _, a := range res {
					if a.Err != "" && a.Cluster != -1 {
						t.Errorf("inconsistent assignment: %+v", a)
					}
				}
				if _, err := cur.DendrogramAt(ctx, 40); err != nil {
					t.Error(err)
				}
				_ = cur.Summary()
			}
		}()
	}
	cur := m
	for c := 0; c < chunks; c++ {
		lo, hi := c*len(extra)/chunks, (c+1)*len(extra)/chunks
		next, err := cur.Append(ctx, extra[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		select {
		case published <- next:
		default:
		}
		cur = next
	}
	close(stop)
	wg.Wait()
	if cur.Epoch() != chunks {
		t.Fatalf("final epoch %d, want %d", cur.Epoch(), chunks)
	}
	// After the dust settles, the concurrent run equals the batch build.
	batch, err := BuildCtx(context.Background(), "racey-batch", append(append([]traclus.Trajectory{}, trainingSet()...), extra...), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ns, bs := cur.Summary(), batch.Summary(); ns.Clusters != bs.Clusters ||
		ns.TotalSegments != bs.TotalSegments || ns.QMeasure != bs.QMeasure {
		t.Errorf("concurrent appends diverged from batch: %+v vs %+v", ns, bs)
	}
}

// TestDiskStoreReplacePublishesNewEpoch pins the daemon's publish path: the
// resident entry swaps immediately and the appended snapshot lands on disk.
func TestDiskStoreReplacePublishesNewEpoch(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildCtx(context.Background(), "swap", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("swap", m); err != nil {
		t.Fatal(err)
	}
	next, err := m.Append(context.Background(), appendSet())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Replace("swap", next); err != nil {
		t.Fatal(err)
	}
	got, ok := ds.mem.Get("swap")
	if !ok || got != next {
		t.Fatal("Replace did not swap the resident model")
	}
	ds.Quiesce()
	if err := ds.SaveErr(); err != nil {
		t.Fatal(err)
	}
	// A fresh store on the same directory restores the appended epoch.
	ds2, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, found, err := ds2.Get("swap")
	if err != nil || !found {
		t.Fatalf("reload: found=%v err=%v", found, err)
	}
	if got := loaded.Summary().Epoch; got != 1 {
		t.Errorf("reloaded epoch = %d, want 1", got)
	}
	if got, want := loaded.Summary().TotalSegments, next.Summary().TotalSegments; got != want {
		t.Errorf("reloaded TotalSegments = %d, want %d", got, want)
	}
}

// TestAppendEmpty: an empty append succeeds and leaves the clustering
// untouched.
func TestAppendEmpty(t *testing.T) {
	m, err := BuildCtx(context.Background(), "empty", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	next, err := m.Append(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.Summary().TotalSegments != m.Summary().TotalSegments {
		t.Errorf("empty append changed the clustering: %d -> %d segments",
			m.Summary().TotalSegments, next.Summary().TotalSegments)
	}
}

// labelsAt returns the model's clustering at its own ε, cut from its
// dendrogram — the same labels the build or append produced.
func labelsAt(t *testing.T, m *Model) []int {
	t.Helper()
	cfg := m.Config()
	d, err := m.DendrogramAt(context.Background(), cfg.Eps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.CutAt(cfg.Eps, cfg.MinLns, cfg.MinTrajs)
	if err != nil {
		t.Fatal(err)
	}
	return res.ClusterOf
}

// TestAppendScoresOnlyNewPairs pins the incremental quality on the service
// path: when no old segment changes group, a 1-trajectory append scores
// exactly the within-group pairs that touch a new segment — the previous
// epoch's pair sums carry everything else.
func TestAppendScoresOnlyNewPairs(t *testing.T) {
	trs := synth.Hurricanes(synth.HurricaneConfig{NumTracks: 65, MeanPoints: 24, Jitter: 4, Seed: 5})
	m, err := BuildCtx(context.Background(), "pairs", trs[:60], buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Track 64 partitions into four segments, two of which join clusters.
	next, err := m.Append(context.Background(), trs[64:])
	if err != nil {
		t.Fatal(err)
	}
	old, cur := labelsAt(t, m), labelsAt(t, next)
	if len(cur) <= len(old) {
		t.Fatalf("append added no segments: %d -> %d", len(old), len(cur))
	}
	// Precondition: the append moved no old segment — old clusters map one
	// to one onto new ones and noise stays noise.
	onto, back := map[int]int{}, map[int]int{}
	for i, o := range old {
		n := cur[i]
		m1, ok1 := onto[o]
		m2, ok2 := back[n]
		if ok1 && m1 != n || ok2 && m2 != o || (o == segclust.Noise) != (n == segclust.Noise) {
			t.Fatalf("segment %d went from group %d to %d: the input no longer isolates the append", i, o, n)
		}
		onto[o], back[n] = n, o
	}
	tri := func(n int) int { return n * (n - 1) / 2 }
	size, fresh := map[int]int{}, map[int]int{}
	for i, c := range cur {
		size[c]++
		if i >= len(old) {
			fresh[c]++
		}
	}
	want, full := 0, 0
	for g, n := range size {
		want += tri(n) - tri(n-fresh[g])
		full += tri(n)
	}
	if got := next.Result().QualityPairs(); got != want {
		t.Errorf("append scored %d pairs, want the %d that touch its %d new segments (a full pass scores %d)",
			got, want, len(cur)-len(old), full)
	}
	// The build itself had no earlier epoch: it scored every pair.
	oldSize := map[int]int{}
	for _, c := range old {
		oldSize[c]++
	}
	built := 0
	for _, n := range oldSize {
		built += tri(n)
	}
	if got := m.Result().QualityPairs(); got != built {
		t.Errorf("build scored %d pairs, want all %d", got, built)
	}
}

// BenchmarkModelAppend times a 1-trajectory Model.Append on a 400-track
// hurricane model: the appender's incremental grouping plus the new
// epoch's summary, whose quality advances from the previous epoch's.
func BenchmarkModelAppend(b *testing.B) {
	cfg := synth.DefaultHurricaneConfig()
	cfg.NumTracks = 400
	trs := synth.Hurricanes(cfg)
	cfg.Seed, cfg.NumTracks = 3, 64
	adds := synth.Hurricanes(cfg)
	for i := range adds {
		adds[i].ID += 1_000_000
	}
	m, err := BuildCtx(context.Background(), "bench-append", trs, buildConfig(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(adds) == 0 {
			b.StopTimer()
			if m, err = BuildCtx(context.Background(), "bench-append", trs, buildConfig(), nil, nil); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if m, err = m.Append(ctx, adds[i%len(adds):i%len(adds)+1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendSweep is the in-process twin of one serve-mixed cycle's
// writes: a 1-trajectory Model.Append, then the daemon's default 16-step
// sweep over [ε/2, 2ε], on a 400-track hurricane model whose head already
// holds a dendrogram and the states of a sweep on that grid — so the sweep
// cuts the append's extension instead of rebuilding the merge structure,
// and advances each step from the previous epoch's. pairs/op is the number
// of pair distances its quality passes score per cycle.
func BenchmarkAppendSweep(b *testing.B) {
	cfg := synth.DefaultHurricaneConfig()
	cfg.NumTracks = 400
	trs := synth.Hurricanes(cfg)
	cfg.Seed, cfg.NumTracks = 3, 64
	adds := synth.Hurricanes(cfg)
	for i := range adds {
		adds[i].ID += 1_000_000
	}
	ctx := context.Background()
	var m *Model
	var lo, hi float64
	fresh := func() {
		var err error
		if m, err = BuildCtx(context.Background(), "bench-append-sweep", trs, buildConfig(), nil, nil); err != nil {
			b.Fatal(err)
		}
		eps := m.Summary().Eps
		lo, hi = eps/2, 2*eps
		if _, err := m.SweepQuality(ctx, lo, hi, 16); err != nil {
			b.Fatal(err)
		}
	}
	fresh()
	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(adds) == 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		var err error
		if m, err = m.Append(ctx, adds[i%len(adds):i%len(adds)+1]); err != nil {
			b.Fatal(err)
		}
		_, p, err := m.sweep(ctx, lo, hi, 16)
		if err != nil {
			b.Fatal(err)
		}
		pairs += p
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}

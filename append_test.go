package traclus_test

// The tentpole contract of the incremental append path, pinned end to end:
// append-built ≡ batch-built. After any sequence of appends the Appender's
// Result must equal a from-scratch run over the concatenated trajectories —
// same clusters (segments, trajectory sets, representatives bit-for-bit),
// same noise/removed counters, same cluster windows — across every backend,
// worker count, and geometry. DistCalls is deliberately excluded from the
// digest: the base items were queried against the smaller pre-append index,
// so the incremental path legitimately evaluates fewer candidates than a
// batch run over the concatenation (see internal/segclust/incremental.go).

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/synth"

	traclus "repro"
)

// appendFingerprint digests everything the append contract pins: the exact
// bits of every geometric output, the counters, and the cluster windows —
// but not DistCalls.
func appendFingerprint(r *traclus.Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	put(uint64(len(r.Clusters)))
	for _, c := range r.Clusters {
		put(uint64(len(c.Segments)))
		for _, s := range c.Segments {
			putF(s.Start.X)
			putF(s.Start.Y)
			putF(s.End.X)
			putF(s.End.Y)
		}
		put(uint64(len(c.Trajectories)))
		for _, id := range c.Trajectories {
			put(uint64(id))
		}
		put(uint64(len(c.Representative)))
		for _, p := range c.Representative {
			putF(p.X)
			putF(p.Y)
		}
	}
	put(uint64(r.NoiseSegments))
	put(uint64(r.TotalSegments))
	put(uint64(r.RemovedClusters))
	put(uint64(len(r.ClusterWindows())))
	for _, w := range r.ClusterWindows() {
		putF(w.Start)
		putF(w.End)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// sameQuality pins the Formula 11 terms bit for bit: every cluster's SSE,
// the noise penalty and QMeasure. Reading them computes the result's
// quality state, so the next append advances from it instead of scoring
// every pair again.
func sameQuality(t *testing.T, label string, got, want *traclus.Result) {
	t.Helper()
	gs, ws := got.ClusterStats(), want.ClusterStats()
	if len(gs) != len(ws) {
		t.Errorf("%s: %d cluster stats, batch %d", label, len(gs), len(ws))
		return
	}
	for i := range ws {
		if math.Float64bits(gs[i].SSE) != math.Float64bits(ws[i].SSE) {
			t.Errorf("%s: cluster %d SSE %v, batch %v", label, i, gs[i].SSE, ws[i].SSE)
		}
	}
	if a, b := got.NoisePenalty(), want.NoisePenalty(); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("%s: NoisePenalty %v, batch %v", label, a, b)
	}
	if a, b := got.QMeasure(), want.QMeasure(); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("%s: QMeasure %v, batch %v", label, a, b)
	}
}

var appendBackends = []traclus.IndexBackend{traclus.GridIndexBackend(), traclus.RTreeIndexBackend(), traclus.BruteIndexBackend()}
var appendWorkers = []int{1, 2, 4, 0}

// appendChunks splits the tail of trs into the append schedule every
// equivalence test drives: a single trajectory, a small batch, and the rest.
func appendChunks(trs []traclus.Trajectory, base int) ([]traclus.Trajectory, [][]traclus.Trajectory) {
	return trs[:base], [][]traclus.Trajectory{trs[base : base+1], trs[base+1 : base+6], trs[base+6:]}
}

// TestAppendEquivalencePlanar: the full matrix on the planar geometry. Each
// append's Result is compared against a batch run over everything appended
// so far, at every backend × worker count.
func TestAppendEquivalencePlanar(t *testing.T) {
	trs := equivalenceWorkload(t, 90)
	ctx := context.Background()
	for _, kind := range appendBackends {
		for _, workers := range appendWorkers {
			cfg := traclus.Config{
				Eps: 30, MinLns: 6,
				CostAdvantage:    15,
				MinSegmentLength: 40,
				Index:            kind,
				Workers:          workers,
			}
			base, chunks := appendChunks(trs, 60)
			ap, err := traclus.New(traclus.WithConfig(cfg)).NewAppender(ctx, base)
			if err != nil {
				t.Fatalf("index=%v workers=%d: NewAppender: %v", kind.Name(), workers, err)
			}
			batch0, err := run(base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := appendFingerprint(ap.Result()), appendFingerprint(batch0); a != b {
				t.Fatalf("index=%v workers=%d: initial build fingerprint %s (appender) vs %s (Run)", kind.Name(), workers, a, b)
			}
			if a, b := ap.Result().DistCalls(), batch0.DistCalls(); a != b {
				t.Fatalf("index=%v workers=%d: initial build DistCalls %d (appender) vs %d (Run)", kind.Name(), workers, a, b)
			}
			sameQuality(t, fmt.Sprintf("index=%v workers=%d initial build", kind.Name(), workers), ap.Result(), batch0)
			sofar := base
			for ci, chunk := range chunks {
				res, err := ap.Append(ctx, chunk)
				if err != nil {
					t.Fatalf("index=%v workers=%d append %d: %v", kind.Name(), workers, ci, err)
				}
				sofar = append(sofar[:len(sofar):len(sofar)], chunk...)
				batch, err := run(sofar, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := appendFingerprint(res), appendFingerprint(batch); a != b {
					t.Errorf("index=%v workers=%d after append %d (%d trajectories): fingerprint %s (append-built) vs %s (batch-built)",
						kind.Name(), workers, ci, len(sofar), a, b)
				}
				sameQuality(t, fmt.Sprintf("index=%v workers=%d after append %d", kind.Name(), workers, ci), res, batch)
			}
		}
	}
}

// TestAppendEquivalenceTimed: the spatiotemporal geometry, wT > 0 so the
// temporal term is live, cluster windows included in the digest.
func TestAppendEquivalenceTimed(t *testing.T) {
	timed := timedWorkload(t, 90)
	ctx := context.Background()
	for _, kind := range appendBackends {
		for _, workers := range appendWorkers {
			cfg := traclus.Config{
				Eps: 30, MinLns: 6,
				CostAdvantage:    15,
				MinSegmentLength: 40,
				Index:            kind,
				Workers:          workers,
				Geometry:         traclus.SpatiotemporalGeometry(0.002),
			}
			build := func() (*traclus.Pipeline, error) {
				return traclus.New(traclus.WithConfig(cfg)), nil
			}
			p, _ := build()
			base, chunks := timed[:60], [][]traclus.Trajectory{timed[60:61], timed[61:66], timed[66:]}
			ap, err := p.NewAppender(ctx, base)
			if err != nil {
				t.Fatalf("index=%v workers=%d: NewAppender: %v", kind.Name(), workers, err)
			}
			ap.Result().QMeasure() // appends advance from this epoch's quality
			sofar := base
			for ci, chunk := range chunks {
				res, err := ap.Append(ctx, chunk)
				if err != nil {
					t.Fatalf("index=%v workers=%d append %d: %v", kind.Name(), workers, ci, err)
				}
				sofar = append(sofar[:len(sofar):len(sofar)], chunk...)
				pb, _ := build()
				batch, err := pb.Run(ctx, sofar)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := appendFingerprint(res), appendFingerprint(batch); a != b {
					t.Errorf("index=%v workers=%d after append %d (%d trajectories): fingerprint %s (append-built) vs %s (batch-built)",
						kind.Name(), workers, ci, len(sofar), a, b)
				}
				sameQuality(t, fmt.Sprintf("index=%v workers=%d after append %d", kind.Name(), workers, ci), res, batch)
			}
		}
	}
}

// TestAppendEquivalenceGeodesic: lat/lon input. The appender resolves its
// projection frame from the INITIAL data bounds and keeps it for every
// append; a batch run over the concatenation would derive a different frame
// from the enlarged bounds, so the batch comparison pins the appender's
// frame explicitly in Config.Geometry — the same discipline snapshot
// restores use.
func TestAppendEquivalenceGeodesic(t *testing.T) {
	trs := synth.GPSTracks(3, 10, 25, 7)
	ctx := context.Background()
	cfg := traclus.Config{Eps: 150, MinLns: 5, MinSegmentLength: 100, Geometry: traclus.GeodesicGeometry()}
	for _, kind := range appendBackends {
		for _, workers := range []int{1, 0} {
			cfg.Index, cfg.Workers = kind, workers
			base, chunks := appendChunks(trs, len(trs)-8)
			ap, err := traclus.New(traclus.WithConfig(cfg)).NewAppender(ctx, base)
			if err != nil {
				t.Fatalf("index=%v workers=%d: NewAppender: %v", kind.Name(), workers, err)
			}
			pinned := cfg
			pinned.Geometry = ap.Result().Geometry() // geodesic + the resolved frame
			if pinned.Geometry.Frame == nil {
				t.Fatal("appender resolved no frame")
			}
			ap.Result().QMeasure() // appends advance from this epoch's quality
			sofar := base
			for ci, chunk := range chunks {
				res, err := ap.Append(ctx, chunk)
				if err != nil {
					t.Fatalf("index=%v workers=%d append %d: %v", kind.Name(), workers, ci, err)
				}
				sofar = append(sofar[:len(sofar):len(sofar)], chunk...)
				batch, err := traclus.New(traclus.WithConfig(pinned)).Run(ctx, sofar)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := appendFingerprint(res), appendFingerprint(batch); a != b {
					t.Errorf("index=%v workers=%d after append %d: fingerprint %s (append-built) vs %s (batch-built, pinned frame)",
						kind.Name(), workers, ci, a, b)
				}
				sameQuality(t, fmt.Sprintf("index=%v workers=%d after append %d", kind.Name(), workers, ci), res, batch)
			}
		}
	}
}

// TestAppendOrderInvariance: any way of slicing the same tail into appends
// lands on the same canonical clustering (the fuzz target pins arbitrary
// permutations; this is the deterministic core of it).
func TestAppendOrderInvariance(t *testing.T) {
	trs := equivalenceWorkload(t, 80)
	ctx := context.Background()
	cfg := traclus.Config{Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40}
	schedules := [][]int{{20}, {1, 19}, {19, 1}, {7, 7, 6}, {1, 1, 1, 17}}
	var want string
	for si, sched := range schedules {
		ap, err := traclus.New(traclus.WithConfig(cfg)).NewAppender(ctx, trs[:60])
		if err != nil {
			t.Fatal(err)
		}
		at := 60
		var res *traclus.Result
		for _, n := range sched {
			if res, err = ap.Append(ctx, trs[at:at+n]); err != nil {
				t.Fatal(err)
			}
			at += n
		}
		fp := appendFingerprint(res)
		if si == 0 {
			want = fp
			continue
		}
		if fp != want {
			t.Errorf("schedule %v: fingerprint %s, want %s (schedule %v)", sched, fp, want, schedules[0])
		}
	}
}

// TestRunAndAppenderShareOneBuild: Run and NewAppender are one build, so
// at a fixed ε and under WithEstimation, serial and parallel, they give the
// same progress events, estimate, DistCalls, clustering and dendrogram.
func TestRunAndAppenderShareOneBuild(t *testing.T) {
	ctx := context.Background()
	trs := equivalenceWorkload(t, 80)
	cases := []struct {
		name string
		cfg  traclus.Config
		opts []traclus.Option
	}{
		{"fixed", traclus.Config{Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40}, nil},
		{"auto", traclus.Config{CostAdvantage: 15, MinSegmentLength: 40}, []traclus.Option{traclus.WithEstimation(5, 60)}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			what := fmt.Sprintf("%s workers=%d", c.name, workers)
			cfg := c.cfg
			cfg.Workers = workers
			build := func(appender bool) (*traclus.Result, []traclus.ProgressEvent) {
				var events []traclus.ProgressEvent
				p := traclus.New(append([]traclus.Option{
					traclus.WithConfig(cfg),
					traclus.WithProgress(func(ev traclus.ProgressEvent) { events = append(events, ev) }),
				}, c.opts...)...)
				if !appender {
					res, err := p.Run(ctx, trs)
					if err != nil {
						t.Fatalf("%s: Run: %v", what, err)
					}
					return res, events
				}
				ap, err := p.NewAppender(ctx, trs)
				if err != nil {
					t.Fatalf("%s: NewAppender: %v", what, err)
				}
				return ap.Result(), events
			}
			run, runEvents := build(false)
			app, appEvents := build(true)
			if !reflect.DeepEqual(runEvents, appEvents) {
				t.Errorf("%s: progress events differ:\nRun:         %v\nNewAppender: %v", what, runEvents, appEvents)
			}
			if (run.Estimated != nil) != (c.opts != nil) || !reflect.DeepEqual(run.Estimated, app.Estimated) {
				t.Errorf("%s: Estimated %+v from Run, %+v from NewAppender", what, run.Estimated, app.Estimated)
			}
			if run.DistCalls() != app.DistCalls() {
				t.Errorf("%s: DistCalls %d from Run, %d from NewAppender", what, run.DistCalls(), app.DistCalls())
			}
			if a, b := appendFingerprint(run), appendFingerprint(app); a != b {
				t.Errorf("%s: fingerprint %s from Run, %s from NewAppender", what, a, b)
			}
			rd, ad := run.Dendrogram(), app.Dendrogram()
			switch {
			case (rd != nil) != (c.opts != nil) || (ad != nil) != (rd != nil):
				t.Errorf("%s: dendrogram %v from Run, %v from NewAppender", what, rd != nil, ad != nil)
			case rd != nil && (rd.MaxEps() != ad.MaxEps() || rd.Edges() != ad.Edges()):
				t.Errorf("%s: dendrogram MaxEps/Edges %g/%d from Run, %g/%d from NewAppender",
					what, rd.MaxEps(), rd.Edges(), ad.MaxEps(), ad.Edges())
			}
		}
	}
}

// TestAppendResweepsOnlyTouchedClusters pins the representative phase's
// reuse across epochs: an append keeps, by reference, the representative of
// every cluster whose member segments it left unchanged, and sweeps only the
// clusters it touched. A trajectory far from every cluster touches none; one
// along a single corridor touches that corridor's cluster alone. Each
// appended Result still equals a batch run over the concatenation.
func TestAppendResweepsOnlyTouchedClusters(t *testing.T) {
	ctx := context.Background()
	scene := synth.CorridorScene(3, 11, 24, 4, 11)
	along := scene[10] // the first corridor's last trajectory
	base := append(slices.Clone(scene[:10]), scene[11:]...)
	far := traclus.Trajectory{ID: 1000, Weight: 1, Points: []traclus.Point{{X: 5000, Y: 5000}, {X: 5300, Y: 5010}, {X: 5600, Y: 5000}}}
	cfg := traclus.Config{Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40}
	ap, err := traclus.New(traclus.WithConfig(cfg)).NewAppender(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ap.Result().Clusters); n < 2 {
		t.Fatalf("the scene holds %d clusters, want several", n)
	}
	sofar := base
	for _, step := range []struct {
		name  string
		tr    traclus.Trajectory
		swept int
	}{{"far", far, 0}, {"along a corridor", along, 1}} {
		prev := ap.Result()
		res, err := ap.Append(ctx, []traclus.Trajectory{step.tr})
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		sofar = append(sofar[:len(sofar):len(sofar)], step.tr)
		batch, err := run(sofar, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := appendFingerprint(res), appendFingerprint(batch); a != b {
			t.Errorf("%s: fingerprint %s (append-built) vs %s (batch-built)", step.name, a, b)
		}
		prevReps := make(map[*traclus.Point]bool)
		for _, c := range prev.Clusters {
			if len(c.Representative) > 0 {
				prevReps[&c.Representative[0]] = true
			}
		}
		swept := 0
		for i, c := range res.Clusters {
			if len(c.Representative) == 0 {
				t.Fatalf("%s: cluster %d has no representative to compare", step.name, i)
			}
			kept := prevReps[&c.Representative[0]]
			unchanged := slices.ContainsFunc(prev.Clusters, func(pc traclus.Cluster) bool { return slices.Equal(pc.Segments, c.Segments) })
			switch {
			case unchanged && !kept:
				t.Errorf("%s: cluster %d kept its members but was swept again", step.name, i)
			case !unchanged && kept:
				t.Errorf("%s: cluster %d changed but kept the previous epoch's representative", step.name, i)
			case !unchanged:
				swept++
			}
		}
		if swept != step.swept {
			t.Errorf("%s: %d clusters changed, want %d", step.name, swept, step.swept)
		}
	}
}

// TestAppendGuards: the typed-error surface of the append path.
func TestAppendGuards(t *testing.T) {
	ctx := context.Background()
	trs := equivalenceWorkload(t, 20)
	cfg := traclus.Config{Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40}

	// A planar appender rejects trajectories that carry Times, and a
	// spatiotemporal one trajectories without them.
	ap, err := traclus.New(traclus.WithConfig(cfg)).NewAppender(ctx, trs[:10])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.Append(ctx, timedWorkload(t, 4)); err == nil {
		t.Fatal("planar appender accepted trajectories with Times")
	}
	timedCfg := cfg
	timedCfg.Geometry = traclus.SpatiotemporalGeometry(0)
	tap, err := traclus.New(traclus.WithConfig(timedCfg)).NewAppender(ctx, timedWorkload(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tap.Append(ctx, trs[:2]); err == nil {
		t.Fatal("spatiotemporal appender accepted trajectories without Times")
	}

	// Empty appends are free and return the current result unchanged.
	before := appendFingerprint(ap.Result())
	res, err := ap.Append(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if appendFingerprint(res) != before {
		t.Fatal("empty append changed the result")
	}

	// Spatiotemporal geometry demands the timed entry point.
	var cfgErr *traclus.ConfigError
	timedCfg.Geometry = traclus.SpatiotemporalGeometry(0.5)
	_, err = traclus.New(traclus.WithConfig(timedCfg)).NewAppender(ctx, trs)
	if !errors.As(err, &cfgErr) {
		t.Fatalf("NewAppender under spatiotemporal geometry: %v, want *ConfigError", err)
	}
}

// TestAppendDendrogramExtended: an appended Result carries the previous
// epoch's dendrogram extended over the appended items — a new structure,
// bit-identical to a fresh build over the post-append items — and never the
// pre-append one, which stays unmutated. A Result whose previous epoch held
// no dendrogram still holds none.
func TestAppendDendrogramExtended(t *testing.T) {
	ctx := context.Background()
	trs := equivalenceWorkload(t, 60)
	cfg := traclus.Config{CostAdvantage: 15, MinSegmentLength: 40}
	ap, err := traclus.New(traclus.WithConfig(cfg), traclus.WithEstimation(5, 60)).NewAppender(ctx, trs[:50])
	if err != nil {
		t.Fatal(err)
	}
	first := ap.Result()
	pre := first.Dendrogram()
	if pre == nil {
		t.Fatal("estimation build carries no dendrogram")
	}
	if first.Estimated == nil {
		t.Fatal("estimation build reports no estimate")
	}
	preSnap, preEdges := pre.Snapshot(), pre.Edges()
	res, err := ap.Append(ctx, trs[50:])
	if err != nil {
		t.Fatal(err)
	}
	post := res.Dendrogram()
	if post == pre {
		t.Fatal("appended result still carries the pre-append dendrogram")
	}
	if post == nil {
		t.Fatal("appended result carries no dendrogram; the build's should have been extended")
	}
	if post.Len() != res.TotalSegments {
		t.Errorf("extended dendrogram covers %d items, want the appended set's %d", post.Len(), res.TotalSegments)
	}
	// A fresh build over the same items: the batch estimation run indexes
	// the concatenation and builds at the same hi.
	batch, err := traclus.New(traclus.WithConfig(cfg), traclus.WithEstimation(5, 60)).Run(ctx, trs)
	if err != nil {
		t.Fatal(err)
	}
	fresh := batch.Dendrogram()
	if !reflect.DeepEqual(post.Snapshot(), fresh.Snapshot()) || post.Edges() != fresh.Edges() {
		t.Error("extended dendrogram differs from a fresh build over the appended items")
	}
	if !reflect.DeepEqual(pre.Snapshot(), preSnap) || pre.Edges() != preEdges || pre.Len() != first.TotalSegments {
		t.Error("the append mutated the pre-append dendrogram")
	}
	if res.Estimated == nil || *res.Estimated != *first.Estimated {
		t.Fatal("appended result dropped the build-time estimate")
	}
	if res.TotalSegments <= first.TotalSegments {
		t.Fatalf("append did not grow the item set: %d -> %d", first.TotalSegments, res.TotalSegments)
	}

	// No dendrogram before the append, none after it.
	fixed, err := traclus.New(traclus.WithConfig(traclus.Config{Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40})).
		NewAppender(ctx, trs[:50])
	if err != nil {
		t.Fatal(err)
	}
	if res, err = fixed.Append(ctx, trs[50:]); err != nil {
		t.Fatal(err)
	}
	if res.Dendrogram() != nil {
		t.Error("append of a Result that held no dendrogram produced one")
	}
}

// TestAppendCancelledExtension: a context cancelled after the append's
// grouping and assembly, while the previous epoch's dendrogram extends,
// costs only the dendrogram. The append publishes its Result, which builds
// one on first use, and the appender keeps accepting appends.
func TestAppendCancelledExtension(t *testing.T) {
	trs := equivalenceWorkload(t, 60)
	var armed atomic.Bool
	var cancel context.CancelFunc
	cfg := traclus.Config{Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40, Workers: 1}
	ap, err := traclus.New(traclus.WithConfig(cfg), traclus.WithProgress(func(ev traclus.ProgressEvent) {
		// The last assembly event precedes the extension; at one worker
		// nothing between them checks the context.
		if armed.Load() && ev.Phase == traclus.PhaseRepresent && ev.Fraction == 1 {
			cancel()
		}
	})).NewAppender(context.Background(), trs[:50])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.Result().DendrogramAt(context.Background(), 45); err != nil {
		t.Fatal(err)
	}
	ctx, c := context.WithCancel(context.Background())
	cancel = c
	armed.Store(true)
	res, err := ap.Append(ctx, trs[50:55])
	armed.Store(false)
	if err != nil {
		t.Fatalf("append with a cancelled extension failed: %v", err)
	}
	if ctx.Err() == nil {
		t.Fatal("the context was never cancelled; the test no longer reaches the extension")
	}
	if res.Dendrogram() != nil {
		t.Fatal("a cancelled extension published a dendrogram")
	}
	d, err := res.DendrogramAt(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != res.TotalSegments {
		t.Errorf("rebuilt dendrogram covers %d items, want %d", d.Len(), res.TotalSegments)
	}
	next, err := ap.Append(context.Background(), trs[55:])
	if err != nil {
		t.Fatalf("appender broken by a cancelled extension: %v", err)
	}
	if next.Dendrogram() == nil || next.Dendrogram().Len() != next.TotalSegments {
		t.Error("the append after a cancelled extension did not extend the rebuilt dendrogram")
	}
}

// TestResultQualityConcurrent: a Result's quality state is computed once
// even when many goroutines ask for it at once, while an append reads
// whether it is already there; every reader sees the same bits, and the
// appended Result still equals a batch run.
func TestResultQualityConcurrent(t *testing.T) {
	ctx := context.Background()
	trs := equivalenceWorkload(t, 70)
	cfg := traclus.Config{Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40, Workers: 2}
	ap, err := traclus.New(traclus.WithConfig(cfg)).NewAppender(ctx, trs[:60])
	if err != nil {
		t.Fatal(err)
	}
	base := ap.Result()
	qs := make([]float64, 8)
	var wg sync.WaitGroup
	for g := range qs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				_ = base.ClusterStats()
			}
			qs[g] = base.QMeasure() + base.NoisePenalty()
		}(g)
	}
	res, err := ap.Append(ctx, trs[60:61])
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for g, q := range qs {
		if math.Float64bits(q) != math.Float64bits(qs[0]) {
			t.Errorf("reader %d saw %v, reader 0 %v", g, q, qs[0])
		}
	}
	batch, err := run(trs[:61], cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameQuality(t, "after a concurrent append", res, batch)
}

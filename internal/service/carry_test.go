package service

// Carried sweeps ≡ chained sweeps: a sweep that advances each ε step from
// the same step of an earlier epoch's sweep reads, bit for bit, what a
// fresh chained sweep of its own epoch reads — across backends, geometries,
// append sizes, concurrent appends, and sweeps that must not carry.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	traclus "repro"
	"repro/internal/quality"
	"repro/internal/synth"
)

// chainedSweep is the oracle: grid g swept on m with each step advanced
// from the step before and the first from scratch, and the pairs its
// quality passes scored. It neither reads nor writes the lineage.
func chainedSweep(t *testing.T, m *Model, g grid) ([]SweepPoint, int) {
	t.Helper()
	ctx := context.Background()
	d, err := m.DendrogramAt(ctx, g.hi)
	if err != nil {
		t.Fatal(err)
	}
	items := d.Items()
	pts := make([]SweepPoint, g.steps)
	pairs := 0
	var q *quality.State
	for k := range pts {
		eps := g.eps(k)
		res, err := d.CutAt(eps, m.cfg.MinLns, m.cfg.MinTrajs)
		if err != nil {
			t.Fatal(err)
		}
		if q, err = q.Next(ctx, items, res, m.distOptions(), m.cfg.Workers); err != nil {
			t.Fatal(err)
		}
		pairs += q.Pairs()
		b := q.Breakdown()
		pts[k] = SweepPoint{
			Eps:             eps,
			Clusters:        len(res.Clusters),
			NoiseSegments:   res.NoiseCount(),
			NoiseFraction:   noiseFraction(res.NoiseCount(), len(items)),
			RemovedClusters: res.Removed,
			TotalSSE:        b.TotalSSE,
			NoisePenalty:    b.NoisePenalty,
			QMeasure:        b.QMeasure(),
		}
	}
	return pts, pairs
}

// samePoints fails unless got and want agree bit for bit on every field.
func samePoints(t *testing.T, what string, got, want []SweepPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", what, len(got), len(want))
	}
	bits := math.Float64bits
	for k, p := range got {
		w := want[k]
		if bits(p.Eps) != bits(w.Eps) || p.Clusters != w.Clusters || p.NoiseSegments != w.NoiseSegments ||
			bits(p.NoiseFraction) != bits(w.NoiseFraction) || p.RemovedClusters != w.RemovedClusters ||
			bits(p.TotalSSE) != bits(w.TotalSSE) || bits(p.NoisePenalty) != bits(w.NoisePenalty) ||
			bits(p.QMeasure) != bits(w.QMeasure) {
			t.Fatalf("%s: step %d is %+v, the chained sweep's %+v", what, k, p, w)
		}
	}
}

// segmentless returns a two-point trajectory shorter than any scene's
// MinSegmentLength, so appending it adds an epoch and no segment.
func segmentless(tr traclus.Trajectory, id int) traclus.Trajectory {
	p := tr.Points[0]
	q := p
	q.X += 1e-7
	q.Y += 1e-7
	out := traclus.Trajectory{ID: id, Points: []traclus.Point{p, q}}
	if tr.Times != nil {
		out.Times = []float64{tr.Times[0], tr.Times[0] + 1}
	}
	return out
}

// carryScenes are the three geometries' scenes: a build set, then six
// trajectories to append.
func carryScenes() []struct {
	name string
	cfg  traclus.Config
	trs  []traclus.Trajectory
} {
	hcfg := synth.DefaultHurricaneConfig()
	hcfg.NumTracks, hcfg.Seed = 56, 3
	planar := synth.Hurricanes(hcfg)
	rush := synth.RushHours(12, 24, 4, 3, 30, 10, 5000)
	for i, tr := range synth.RushHours(3, 24, 4, 9, 30, 10, 5000) {
		tr.ID = 1000 + i
		rush = append(rush, tr)
	}
	gps := synth.GPSTracks(3, 5, 25, 7)
	for i, tr := range synth.GPSTracks(3, 2, 25, 19) {
		tr.ID = 1000 + i
		gps = append(gps, tr)
	}
	spatiotemporal := buildConfig()
	spatiotemporal.Geometry = traclus.SpatiotemporalGeometry(0.05)
	return []struct {
		name string
		cfg  traclus.Config
		trs  []traclus.Trajectory
	}{
		{"planar", buildConfig(), planar},
		{"spatiotemporal", spatiotemporal, rush},
		{"geodesic", traclus.Config{Eps: 150, MinLns: 5, MinSegmentLength: 100, Geometry: traclus.GeodesicGeometry()}, gps},
	}
}

// TestCarriedSweepMatchesChained: for every index backend × geometry ×
// append size, each sweep equals a fresh chained sweep of its epoch bit for
// bit, and the path it took shows in the pairs it scored. A sweep of a new
// epoch on the lineage's grid carries: it scores fewer pairs than the
// chained sweep, and a repeated sweep of one epoch scores none. The first
// sweep of a lineage, a sweep of an older epoch after the head moved, and a
// sweep on another grid chain, scoring what the chained sweep scores; a
// grid finer than maxCarriedSteps also chains, and keeps the carried sweep
// in place. An append that adds no segment carries at no cost.
func TestCarriedSweepMatchesChained(t *testing.T) {
	ctx := context.Background()
	for _, sc := range carryScenes() {
		for _, kind := range []traclus.IndexBackend{traclus.GridIndexBackend(), traclus.RTreeIndexBackend(), traclus.BruteIndexBackend()} {
			for _, size := range []int{1, 3} {
				cfg := sc.cfg
				cfg.Index = kind
				n := len(sc.trs) - 6
				m0, err := BuildCtx(ctx, sc.name, sc.trs[:n], cfg, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				eps := m0.Summary().Eps
				g := grid{lo: eps / 2, hi: 2 * eps, steps: 16}
				other := grid{lo: eps / 3, hi: 3 * eps, steps: 7}
				cell := fmt.Sprintf("%s/%s/append %d", sc.name, kind.Name(), size)
				sweep := func(what string, m *Model, g grid, carries bool) int {
					t.Helper()
					got, pairs, err := m.sweep(ctx, g.lo, g.hi, g.steps)
					if err != nil {
						t.Fatalf("%s, %s: %v", cell, what, err)
					}
					want, chained := chainedSweep(t, m, g)
					samePoints(t, cell+", "+what, got, want)
					if carries && pairs >= chained || !carries && pairs != chained {
						t.Errorf("%s, %s: scored %d pairs, the chained sweep %d", cell, what, pairs, chained)
					}
					return pairs
				}
				appendTo := func(m *Model, trs ...traclus.Trajectory) *Model {
					t.Helper()
					next, err := m.Append(ctx, trs)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					return next
				}

				sweep("the lineage's first sweep", m0, g, false)
				m1 := appendTo(m0, sc.trs[n:n+size]...)
				sweep("epoch 1", m1, g, true)
				if pairs := sweep("epoch 1 again", m1, g, true); pairs != 0 {
					t.Errorf("%s: a repeated sweep of epoch 1 scored %d pairs, want 0", cell, pairs)
				}
				m2 := appendTo(m1, sc.trs[n+size:n+2*size]...)
				if len(m2.Result().Clusters) == 0 {
					t.Fatalf("%s: no clusters; the scene exercises nothing", cell)
				}
				sweep("epoch 2", m2, g, true)
				sweep("epoch 1 after the head moved", m1, g, false)
				if pairs := sweep("epoch 2 again", m2, g, true); pairs != 0 {
					t.Errorf("%s: the older epoch's sweep displaced epoch 2's: a repeated sweep scored %d pairs", cell, pairs)
				}
				fine := grid{lo: g.lo, hi: g.hi, steps: maxCarriedSteps + 1}
				sweep("epoch 2 on a grid too fine to carry", m2, fine, false)
				if pairs := sweep("epoch 2 after the fine sweep", m2, g, true); pairs != 0 {
					t.Errorf("%s: a sweep too fine to carry displaced epoch 2's: a repeated sweep scored %d pairs", cell, pairs)
				}
				sweep("epoch 2 on another grid", m2, other, false)
				sweep("epoch 2 back on the first grid", m2, g, false)
				m3 := appendTo(m2, segmentless(sc.trs[0], 5000))
				if got, want := m3.Summary().TotalSegments, m2.Summary().TotalSegments; got != want {
					t.Fatalf("%s: the segmentless append took the model from %d to %d segments", cell, want, got)
				}
				if pairs := sweep("epoch 3, which added no segment", m3, g, true); pairs != 0 {
					t.Errorf("%s: a sweep after an append of no segment scored %d pairs, want 0", cell, pairs)
				}
			}
		}
	}
}

// TestCarriedSweepConcurrentAppend: sweeps of epochs 1 and 2, on the
// lineage's grid and on another, run beside an Append that moves the head
// and sweeps the new epoch. Every sweep still equals a fresh chained sweep
// of its own epoch. CI runs it under the race detector, ten times over.
func TestCarriedSweepConcurrentAppend(t *testing.T) {
	ctx := context.Background()
	hcfg := synth.DefaultHurricaneConfig()
	hcfg.NumTracks, hcfg.Seed = 63, 5
	trs := synth.Hurricanes(hcfg)
	m0, err := BuildCtx(ctx, "concurrent", trs[:60], buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := m0.Append(ctx, trs[60:61])
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m1.Append(ctx, trs[61:62])
	if err != nil {
		t.Fatal(err)
	}
	eps := m0.Summary().Eps
	g := grid{lo: eps / 2, hi: 2 * eps, steps: 16}
	other := grid{lo: eps / 4, hi: 1.5 * eps, steps: 9}
	if _, err := m1.SweepQuality(ctx, g.lo, g.hi, g.steps); err != nil {
		t.Fatal(err)
	}

	type run struct {
		m   *Model
		g   grid
		pts []SweepPoint
		err error
	}
	var (
		mu   sync.Mutex
		runs []run
		wg   sync.WaitGroup
	)
	sweep := func(m *Model, g grid) {
		pts, err := m.SweepQuality(ctx, g.lo, g.hi, g.steps)
		mu.Lock()
		runs = append(runs, run{m, g, pts, err})
		mu.Unlock()
	}
	for _, m := range []*Model{m1, m2} {
		for _, g := range []grid{g, other} {
			for rep := 0; rep < 2; rep++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sweep(m, g)
				}()
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		m3, err := m1.Append(ctx, trs[62:63])
		if err != nil {
			mu.Lock()
			runs = append(runs, run{err: err})
			mu.Unlock()
			return
		}
		sweep(m3, g)
	}()
	wg.Wait()

	for _, r := range runs {
		if r.err != nil {
			t.Fatal(r.err)
		}
		want, _ := chainedSweep(t, r.m, r.g)
		samePoints(t, fmt.Sprintf("epoch %d, grid %+v", r.m.Epoch(), r.g), r.pts, want)
	}
}

// TestCarriedSweepKeepsNoEpochAlive: a lineage that sweeps every epoch
// keeps no superseded epoch's Result reachable through its carried states.
// The build and six appends are each followed by a sweep of the new head,
// and a seventh append is not, so the carried sweep is then of a
// superseded epoch. A finalizer probe sees the collector free the Result
// of every epoch before the head.
func TestCarriedSweepKeepsNoEpochAlive(t *testing.T) {
	ctx := context.Background()
	hcfg := synth.DefaultHurricaneConfig()
	hcfg.NumTracks, hcfg.Seed = 67, 5
	trs := synth.Hurricanes(hcfg)
	m, err := BuildCtx(ctx, "retention", trs[:60], buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eps := m.Summary().Eps
	if _, err := m.SweepQuality(ctx, eps/2, 2*eps, 16); err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		freed = map[int64]bool{}
	)
	for i := 0; i < 7; i++ {
		epoch := m.Epoch()
		runtime.SetFinalizer(m.Result(), func(*traclus.Result) {
			mu.Lock()
			freed[epoch] = true
			mu.Unlock()
		})
		if m, err = m.Append(ctx, trs[60+i:61+i]); err != nil {
			t.Fatal(err)
		}
		if i < 6 {
			if _, err := m.SweepQuality(ctx, eps/2, 2*eps, 16); err != nil {
				t.Fatal(err)
			}
		}
	}
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(freed)
	}
	for i := 0; i < 50 && count() < 7; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for e := int64(0); e < 7; e++ {
		if !freed[e] {
			t.Errorf("epoch %d's Result is still reachable after the head moved to epoch %d", e, m.Epoch())
		}
	}
	runtime.KeepAlive(m)
}

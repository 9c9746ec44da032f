package lsdist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/segpool"
)

// kernelOptions is the grid of Options every equivalence test sweeps: the
// bit-identity contract must hold for any weights and for both angle
// conventions, not just the defaults.
var kernelOptions = []Options{
	DefaultOptions(),
	{Weights: DefaultWeights(), Undirected: true},
	{Weights: Weights{Perpendicular: 2.5, Parallel: 0.25, Angle: 7}},
	{Weights: Weights{Perpendicular: 1, Parallel: 0, Angle: 3}, Undirected: true},
	{Weights: Weights{Perpendicular: 0, Parallel: 1e-3, Angle: 0}},
	{Weights: Weights{Perpendicular: -1, Parallel: 2, Angle: 3}}, // invalid → defaults, in kernel and closure alike
}

// seg is shorthand for building a segment from four coordinates.
func seg(x1, y1, x2, y2 float64) geom.Segment {
	return geom.Segment{Start: geom.Point{X: x1, Y: y1}, End: geom.Point{X: x2, Y: y2}}
}

// degenerateSegs is the adversarial corpus: zero-length points, collinear and
// axis-parallel runs, a near-parallel pair differing in the last ulps, and
// huge/tiny coordinate scales that stress overflow/underflow in the
// intermediate products.
func degenerateSegs() []geom.Segment {
	return []geom.Segment{
		seg(0, 0, 0, 0),                                 // degenerate at the origin
		seg(3, 4, 3, 4),                                 // degenerate off-origin
		seg(0, 0, 10, 0),                                // axis-parallel (x)
		seg(2, 0, 8, 0),                                 // collinear sub-segment
		seg(0, 0, 0, 10),                                // axis-parallel (y)
		seg(0, 1, 10, 1),                                // parallel offset
		seg(10, 1, 0, 1),                                // same line, reversed heading
		seg(0, 0, 10, 1e-12),                            // near-parallel
		seg(0, 0, 10, math.Nextafter(0, 1)),             // parallel up to one ulp
		seg(1e150, 1e150, 2e150, 2e150),                 // huge scale: Len2 overflows to +Inf
		seg(1e-200, 0, 2e-200, 1e-200),                  // tiny scale: Len2 underflows
		seg(-5e7, 3e7, 5e7, -3e7),                       // large mixed signs
		seg(1, 1, 1+1e-9, 1+1e-9),                       // near-degenerate diagonal
		seg(math.MaxFloat64/4, 0, math.MaxFloat64/2, 0), // near-overflow magnitudes
	}
}

// bitsMatch reports bit equality, treating any NaN as equal to any NaN. NaN
// payloads are excluded from the bit-identity contract: when an intermediate
// overflows (Inf/Inf, Inf−Inf), which operand's NaN payload propagates is
// decided by register allocation — -race instrumentation alone flips it —
// while every NaN behaves identically in the d <= eps comparisons that
// consume distances.
func bitsMatch(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkPairEquivalence asserts bit identity (math.Float64bits, NaN payloads
// excepted — see bitsMatch) between the scalar path and the kernel path for
// one ordered pair under one Options.
func checkPairEquivalence(t *testing.T, a, b geom.Segment, opt Options) {
	t.Helper()
	av, aok := segpool.ViewOf(a)
	bv, bok := segpool.ViewOf(b)
	if !aok || !bok {
		t.Fatalf("non-finite test segment: %v / %v", a, b)
	}
	k := NewKernel(opt)

	wantP, wantL, wantA := ComponentsOpt(a, b, opt)
	gotP, gotL, gotA := k.Components(av, bv)
	for _, c := range [][3]float64{{wantP, gotP, 0}, {wantL, gotL, 1}, {wantA, gotA, 2}} {
		if !bitsMatch(c[0], c[1]) {
			t.Fatalf("component %v differs for %v vs %v under %+v:\nscalar %v (%016x)\nkernel %v (%016x)",
				c[2], a, b, opt, c[0], math.Float64bits(c[0]), c[1], math.Float64bits(c[1]))
		}
	}

	if perp, ang := k.PerpAngle(&av, &bv); !bitsMatch(wantP, perp) || !bitsMatch(wantA, ang) {
		t.Fatalf("PerpAngle differs for %v vs %v under %+v: scalar (%v, %v), kernel (%v, %v)",
			a, b, opt, wantP, wantA, perp, ang)
	}

	want := New(opt)(a, b)
	got := k.Pair(av, bv)
	if !bitsMatch(want, got) {
		t.Fatalf("distance differs for %v vs %v under %+v:\nscalar %v (%016x)\nkernel %v (%016x)",
			a, b, opt, want, math.Float64bits(want), got, math.Float64bits(got))
	}
}

// TestKernelEquivalenceRandom pins the bit-identity contract on randomized
// segment pairs across the options grid — every component and the combined
// distance must match the scalar path to the last bit.
func TestKernelEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, opt := range kernelOptions {
		for i := 0; i < 2000; i++ {
			a, b := randSeg(rng), randSeg(rng)
			checkPairEquivalence(t, a, b, opt)
			checkPairEquivalence(t, b, a, opt)
			checkPairEquivalence(t, a, a, opt)
		}
	}
}

// TestKernelEquivalenceDegenerate runs the full cross product of the
// adversarial corpus (including each segment against itself and its own
// reverse) through the equivalence check.
func TestKernelEquivalenceDegenerate(t *testing.T) {
	segs := degenerateSegs()
	for _, opt := range kernelOptions {
		for _, a := range segs {
			for _, b := range segs {
				checkPairEquivalence(t, a, b, opt)
			}
			rev := geom.Segment{Start: a.End, End: a.Start}
			checkPairEquivalence(t, a, rev, opt)
		}
	}
}

// TestKernelBlockShapes checks the block entry points against per-pair Pair
// calls: DistBlock must honor an arbitrary id gather order, DistRange must
// match the contiguous slice, and both must reuse out's capacity.
func TestKernelBlockShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	segs := make([]geom.Segment, 257) // not a multiple of any block size
	for i := range segs {
		segs[i] = randSeg(rng)
	}
	pool, err := segpool.New(segs)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(DefaultOptions())
	q, _ := segpool.ViewOf(randSeg(rng))

	ids := rng.Perm(len(segs))[:101]
	out := k.DistBlock(pool, q, ids, math.Inf(1), nil)
	if len(out) != len(ids) {
		t.Fatalf("DistBlock returned %d distances for %d ids", len(out), len(ids))
	}
	for t2, j := range ids {
		if want := k.Pair(q, pool.View(j)); !bitsMatch(out[t2], want) {
			t.Fatalf("DistBlock[%d] (id %d) = %v, want %v", t2, j, out[t2], want)
		}
	}

	// Reuse: a second call with a shorter block must not allocate a fresh
	// slice and must resize correctly.
	prev := &out[0]
	out = k.DistBlock(pool, q, ids[:13], math.Inf(1), out)
	if len(out) != 13 || &out[0] != prev {
		t.Fatalf("DistBlock did not reuse out's backing array")
	}

	rng2 := k.DistRange(pool, q, 31, 222, nil)
	if len(rng2) != 222-31 {
		t.Fatalf("DistRange returned %d distances, want %d", len(rng2), 222-31)
	}
	for t2 := range rng2 {
		if want := k.Pair(q, pool.View(31+t2)); !bitsMatch(rng2[t2], want) {
			t.Fatalf("DistRange[%d] = %v, want %v", t2, rng2[t2], want)
		}
	}
}

// boundsFor returns the bounds a pair is scored against: its exact distance
// d and the floats either side of it, 0 and +Inf, and each weighted
// component alone — the partial sums the kernel stops at.
func boundsFor(k *Kernel, av, bv segpool.Seg, d float64) []float64 {
	dp, dl, da := k.Components(av, bv)
	return []float64{
		d, math.Nextafter(d, math.Inf(-1)), math.Nextafter(d, math.Inf(1)),
		0, math.Inf(1),
		float64(k.wPerp * dp), float64(k.wPar * dl), float64(k.wAng * da),
	}
}

// boundMismatch checks the bound contract of DistBlock for one scored pair
// — the value is within bound exactly when the exact distance want is, and
// then it is want bit for bit — and describes the violation, or returns "".
func boundMismatch(got, want, bound float64) string {
	if (got <= bound) != (want <= bound) {
		return fmt.Sprintf("at bound %v (%016x): bounded %v, exact %v — they disagree on d <= bound",
			bound, math.Float64bits(bound), got, want)
	}
	if want <= bound && !bitsMatch(got, want) {
		return fmt.Sprintf("at bound %v: accepted value %v (%016x), exact %v (%016x)",
			bound, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return ""
}

// TestKernelBoundedScoring pins the bound contract of DistBlock on the
// random and the degenerate corpus under every option set, zero weights
// included (where an overflowing component times a zero weight is NaN):
// every pair is accepted (d <= bound) exactly when its exact scalar
// distance is, and an accepted pair carries the exact distance bit for bit.
func TestKernelBoundedScoring(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	random := make([]geom.Segment, 120)
	for i := range random {
		random[i] = randSeg(rng)
	}
	for _, corpus := range []struct {
		name string
		segs []geom.Segment
	}{{"random", random}, {"degenerate", degenerateSegs()}} {
		pool, err := segpool.New(corpus.segs)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range kernelOptions {
			k := NewKernel(opt)
			exact := New(opt)
			var out []float64
			for i, a := range corpus.segs {
				av := pool.View(i)
				for j, b := range corpus.segs {
					want := exact(a, b)
					for _, bound := range boundsFor(k, av, pool.View(j), want) {
						out = k.DistBlock(pool, av, []int{j}, bound, out)
						if msg := boundMismatch(out[0], want, bound); msg != "" {
							t.Fatalf("%s %v vs %v under %+v %s", corpus.name, a, b, opt, msg)
						}
					}
				}
			}
		}
	}
}

// TestKernelBoundedBlock scores whole blocks at one bound — the median
// exact distance of each query, so about half the pairs stop early — and
// checks every slot against exact scoring, through a reused out slice.
func TestKernelBoundedBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	segs := make([]geom.Segment, 300)
	for i := range segs {
		segs[i] = randSeg(rng)
	}
	pool, err := segpool.New(segs)
	if err != nil {
		t.Fatal(err)
	}
	ids := rng.Perm(len(segs))
	for _, opt := range kernelOptions {
		k := NewKernel(opt)
		scalar := New(opt)
		var exact, out []float64
		for i := 0; i < 20; i++ {
			q := pool.View(i)
			exact = k.DistBlock(pool, q, ids, math.Inf(1), exact)
			sorted := append([]float64(nil), exact...)
			sort.Float64s(sorted)
			bound := sorted[len(sorted)/2]
			out = k.DistBlock(pool, q, ids, bound, out)
			for t2, j := range ids {
				if !bitsMatch(exact[t2], scalar(segs[i], segs[j])) {
					t.Fatalf("exact block slot %d differs from the scalar distance", t2)
				}
				if msg := boundMismatch(out[t2], exact[t2], bound); msg != "" {
					t.Fatalf("block slot %d under %+v %s", t2, opt, msg)
				}
			}
		}
	}
}

// TestZeroLengthSegmentGuards pins the scalar distance's division guards for
// degenerate (zero-length) segments: the projection parameter onto a point is
// 0, the empty Lehmer mean is 0, and the angle to or from a point is 0. The
// kernel replicates these guards (stages); the equivalence suite ties
// the two together, this test ties the scalar behavior to the definitions.
func TestZeroLengthSegmentGuards(t *testing.T) {
	pt := seg(3, 4, 3, 4)
	ln := seg(0, 0, 10, 0)

	// Point vs line: the point projects onto itself (u = 0 falls back to
	// li.Start only when li is the point; here li = ln, the longer one).
	dp, dl, da := Components(pt, ln)
	if dp != 4 { // both endpoint offsets are the perpendicular height 4
		t.Errorf("d⊥(point, line) = %v, want 4", dp)
	}
	if dl != 3 { // projection lands at x=3; nearer endpoint is (0,0) at 3
		t.Errorf("d∥(point, line) = %v, want 3", dl)
	}
	if da != 0 { // angle with a zero-length segment is defined as 0, ‖lj‖·sin 0 = 0
		t.Errorf("dθ(point, line) = %v, want 0", da)
	}

	// Point vs point: every division guard at once — ProjectParam's l2 == 0
	// collapses both projections to li's point, so the perpendicular offsets
	// carry the whole 3-4-5 separation (d⊥ = Lehmer₂(5,5) = 5) while the
	// parallel distance from the projection to li's coincident endpoints is
	// 0; Angle's zero norms give dθ = 0. No 0/0 NaN anywhere.
	dp, dl, da = Components(pt, seg(0, 0, 0, 0))
	if dp != 5 || dl != 0 || da != 0 {
		t.Errorf("point vs point: (d⊥, d∥, dθ) = (%v, %v, %v), want (5, 0, 0)", dp, dl, da)
	}

	// Coincident zero-length pair: fully zero, and no NaN from 0/0.
	if d := Dist(pt, pt); d != 0 {
		t.Errorf("dist(point, point at same spot) = %v, want 0", d)
	}

	// Identical-endpoint line pair: ties broken deterministically, zero
	// distance, no NaN anywhere in the guard paths.
	for _, opt := range kernelOptions {
		if d := New(opt)(ln, ln); d != 0 || math.IsNaN(d) {
			t.Errorf("dist(ln, ln) under %+v = %v, want 0", opt, d)
		}
	}
}

// FuzzSegmentDistanceKernel cross-checks the kernel against the scalar path
// on fuzz-chosen coordinates: finite inputs must agree bit for bit through a
// batch of one, bounded scoring at a fuzz-chosen bound must accept exactly
// the pairs exact scoring does and give the same bits in both directions,
// and non-finite inputs must be rejected at pool build / view time (the
// searcher's signal to stay on the scalar fallback).
func FuzzSegmentDistanceKernel(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 0.0, 0.0, 1.0, 10.0, 1.0, 1.0, 1.0, 1.0, false, 2.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 3.0, 4.0, 3.0, 4.0, 1.0, 1.0, 1.0, true, 5.0)
	f.Add(1e150, 1e150, 2e150, 2e150, 0.0, 0.0, 1e-200, 0.0, 2.5, 0.25, 7.0, false, 1e150)
	f.Add(1e150, 1e150, 2e150, 2e150, 0.0, 0.0, 1e-200, 0.0, 1.0, 0.0, 3.0, true, math.Inf(1))
	f.Add(math.Inf(1), 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, false, 0.0)
	f.Add(math.NaN(), 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, true, math.NaN())
	f.Fuzz(func(t *testing.T, ax1, ay1, ax2, ay2, bx1, by1, bx2, by2, wp, wl, wa float64, undirected bool, bound float64) {
		a := seg(ax1, ay1, ax2, ay2)
		b := seg(bx1, by1, bx2, by2)
		opt := Options{Weights: Weights{Perpendicular: wp, Parallel: wl, Angle: wa}, Undirected: undirected}

		aFinite := a.Start.IsFinite() && a.End.IsFinite()
		bFinite := b.Start.IsFinite() && b.End.IsFinite()

		av, aok := segpool.ViewOf(a)
		bv, bok := segpool.ViewOf(b)
		if aok != aFinite || bok != bFinite {
			t.Fatalf("ViewOf finite-ness mismatch: a=%v ok=%v, b=%v ok=%v", a, aok, b, bok)
		}
		if _, err := segpool.New([]geom.Segment{a, b}); (err == nil) != (aFinite && bFinite) {
			t.Fatalf("segpool.New error mismatch for %v, %v: %v", a, b, err)
		}
		if !aFinite || !bFinite {
			return // scalar fallback territory by construction
		}

		k := NewKernel(opt)
		want := New(opt)(a, b)
		got := k.Pair(av, bv)
		if !bitsMatch(want, got) {
			t.Fatalf("kernel mismatch for %v vs %v under %+v: scalar %v (%016x), kernel %v (%016x)",
				a, b, opt, want, math.Float64bits(want), got, math.Float64bits(got))
		}

		// Batch of one through the pool: same bits again.
		pool, err := segpool.New([]geom.Segment{b})
		if err != nil {
			t.Fatal(err)
		}
		out := k.DistBlock(pool, av, []int{0}, math.Inf(1), nil)
		if !bitsMatch(out[0], want) {
			t.Fatalf("DistBlock batch-of-1 mismatch: %v (%016x), want %v (%016x)",
				out[0], math.Float64bits(out[0]), want, math.Float64bits(want))
		}

		// Bounded scoring: the fuzz-chosen bound, and the pair's own exact
		// distance, decide as exact scoring does.
		for _, bd := range []float64{bound, want} {
			out = k.DistBlock(pool, av, []int{0}, bd, out)
			if msg := boundMismatch(out[0], want, bd); msg != "" {
				t.Fatalf("%v vs %v under %+v %s", a, b, opt, msg)
			}
		}

		// Both scoring directions give the same bits at the bound (or NaN on
		// both): the neighborhood passes score each pair from one end only
		// and hand the result to the other.
		apool, err := segpool.New([]geom.Segment{a})
		if err != nil {
			t.Fatal(err)
		}
		out = k.DistBlock(pool, av, []int{0}, bound, out)
		back := k.DistBlock(apool, bv, []int{0}, bound, nil)
		if !bitsMatch(out[0], back[0]) {
			t.Fatalf("%v vs %v under %+v at bound %v: %v (%016x) one way, %v (%016x) the other",
				a, b, opt, bound, out[0], math.Float64bits(out[0]), back[0], math.Float64bits(back[0]))
		}
	})
}

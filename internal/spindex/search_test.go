package spindex

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/lsdist"
)

// TestBatchedBlocksMatchScalar pins the searcher's block scorers against the
// plain per-pair scalar distance, bit for bit, on a finite dataset where the
// kernel path is active.
func TestBatchedBlocksMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	segs := randomSegments(rng, 300, 800)
	opt := lsdist.DefaultOptions()
	dist := lsdist.New(opt)
	s := NewSearcher(segs, opt, Grid())
	if !s.Batched() {
		t.Fatal("finite dataset did not take the kernel path")
	}
	sq := s.Query()

	ids := rng.Perm(len(segs))[:97]
	out := sq.DistBlock(3, ids, math.Inf(1), nil)
	for k, j := range ids {
		if want := dist(segs[3], segs[j]); math.Float64bits(out[k]) != math.Float64bits(want) {
			t.Fatalf("DistBlock[%d] (id %d) = %v, scalar %v", k, j, out[k], want)
		}
	}

	q := geom.Seg(5, 5, 120, 80)
	out = sq.DistBlockSeg(q, ids, out)
	for k, j := range ids {
		if want := dist(q, segs[j]); math.Float64bits(out[k]) != math.Float64bits(want) {
			t.Fatalf("DistBlockSeg[%d] (id %d) = %v, scalar %v", k, j, out[k], want)
		}
	}
}

// TestNonFiniteDatasetFallsBackToScalar pins the fallback gate: a dataset
// containing a non-finite coordinate must keep the searcher off the kernel
// path, and every query must still answer — identically to the scalar
// per-pair evaluation the fallback is.
func TestNonFiniteDatasetFallsBackToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	segs := randomSegments(rng, 60, 400)
	segs = append(segs, geom.Seg(math.NaN(), 0, 1, 1))
	opt := lsdist.DefaultOptions()
	dist := lsdist.New(opt)

	for _, backend := range []Backend{Grid(), RTree(), Brute()} {
		s := NewSearcher(segs, opt, backend)
		if s.Batched() {
			t.Fatalf("%T: non-finite dataset took the kernel path", backend)
		}
		sq := s.Query()
		ids := []int{0, 17, 42, len(segs) - 1}
		out := sq.DistBlock(5, ids, math.Inf(1), nil)
		for k, j := range ids {
			want := dist(segs[5], segs[j])
			if math.Float64bits(out[k]) != math.Float64bits(want) &&
				!(math.IsNaN(out[k]) && math.IsNaN(want)) {
				t.Fatalf("%T: fallback DistBlock[%d] = %v, scalar %v", backend, k, out[k], want)
			}
		}

		// Nearest still answers exactly over the finite portion; the NaN
		// segment never compares below +Inf so it can never win.
		q := geom.Seg(10, 10, 60, 40)
		id, d := sq.Nearest(q, 30, nil)
		bestID, bestD := -1, math.Inf(1)
		for j := range segs {
			if dj := dist(q, segs[j]); dj < bestD {
				bestID, bestD = j, dj
			}
		}
		if id != bestID || math.Float64bits(d) != math.Float64bits(bestD) {
			t.Fatalf("%T: fallback Nearest = (%d, %v), brute force (%d, %v)", backend, id, d, bestID, bestD)
		}
	}
}

// TestNonFiniteQueryFallsBackToScalar pins the per-query gate: an indexed
// finite dataset stays on the kernel path, but a non-finite query segment
// must be scored by the scalar fallback (and produce its exact values).
func TestNonFiniteQueryFallsBackToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	segs := randomSegments(rng, 80, 400)
	opt := lsdist.DefaultOptions()
	dist := lsdist.New(opt)
	s := NewSearcher(segs, opt, Grid())
	if !s.Batched() {
		t.Fatal("finite dataset did not take the kernel path")
	}
	sq := s.Query()

	q := geom.Seg(math.Inf(1), 0, 1, 1)
	ids := []int{1, 2, 3}
	out := sq.DistBlockSeg(q, ids, nil)
	for k, j := range ids {
		want := dist(q, segs[j])
		if math.Float64bits(out[k]) != math.Float64bits(want) &&
			!(math.IsNaN(out[k]) && math.IsNaN(want)) {
			t.Fatalf("non-finite query DistBlockSeg[%d] = %v, scalar %v", k, out[k], want)
		}
	}
}

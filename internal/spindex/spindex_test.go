package spindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/lsdist"
)

func randomSegments(rng *rand.Rand, n int, extent float64) []geom.Segment {
	segs := make([]geom.Segment, n)
	for i := range segs {
		x, y := rng.Float64()*extent, rng.Float64()*extent
		segs[i] = geom.Seg(x, y, x+rng.NormFloat64()*40, y+rng.NormFloat64()*40)
	}
	return segs
}

func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

// exactWithin is the specification of the full (empty-window) query: every
// id whose MBR lies within Euclidean distance r of q.
func exactWithin(segs []geom.Segment, q geom.Rect, r float64) []int {
	var ids []int
	for i, s := range segs {
		if s.Bounds().DistRect(q) <= r {
			ids = append(ids, i)
		}
	}
	return ids
}

// TestBackendsAgreeOnCandidates pins the cross-backend contract on random
// inputs: grid and rtree report exactly the MBR-distance-≤r set (no false
// positives beyond the refinement the callers do themselves, no false
// negatives), and brute reports everything.
func TestBackendsAgreeOnCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	segs := randomSegments(rng, 300, 1000)
	grid := Grid().build(segs)
	rtree := RTree().build(segs)
	brute := Brute().build(segs)
	gq, rq, bq := grid.cursor(), rtree.cursor(), brute.cursor()
	for trial := 0; trial < 200; trial++ {
		q := geom.Seg(rng.Float64()*1100-50, rng.Float64()*1100-50,
			rng.Float64()*1100-50, rng.Float64()*1100-50).Bounds()
		r := rng.Float64() * 120
		want := sortedCopy(exactWithin(segs, q, r))
		got := sortedCopy(gq.within(q, r, 0, 0, nil))
		if len(got) != len(want) {
			t.Fatalf("trial %d: grid returned %d candidates, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: grid candidates %v != exact %v", trial, got, want)
			}
		}
		rgot := sortedCopy(rq.within(q, r, 0, 0, nil))
		if len(rgot) != len(want) {
			t.Fatalf("trial %d: rtree returned %d candidates, want %d", trial, len(rgot), len(want))
		}
		for i := range want {
			if rgot[i] != want[i] {
				t.Fatalf("trial %d: rtree candidates %v != exact %v", trial, rgot, want)
			}
		}
		if all := bq.within(q, r, 0, 0, nil); len(all) != len(segs) {
			t.Fatalf("trial %d: brute returned %d of %d ids", trial, len(all), len(segs))
		}
	}
}

// TestSearcherCandidatesComplete pins the ε-range soundness of the lower
// bound conversion: every segment within exact TRACLUS distance eps must
// appear among the candidates, for every backend.
func TestSearcherCandidatesComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	segs := randomSegments(rng, 250, 800)
	opt := lsdist.DefaultOptions()
	dist := lsdist.New(opt)
	for _, backend := range []Backend{Grid(), RTree(), Brute()} {
		s := NewSearcher(segs, opt, backend)
		sq := s.Query()
		for _, eps := range []float64{5, 25, 80} {
			for i := 0; i < len(segs); i += 17 {
				cand := map[int]bool{}
				for _, id := range sq.CandidatesOf(i, eps, nil) {
					cand[id] = true
				}
				for j := range segs {
					if dist(segs[i], segs[j]) <= eps && !cand[j] {
						t.Fatalf("backend %s eps=%v: segment %d within eps of %d but not a candidate",
							backend.Name(), eps, j, i)
					}
				}
			}
		}
	}
}

// TestNearestExactAgainstBruteForce is the exactness property test: on
// random inputs and random query segments, the pruned expanding-radius
// Nearest must return exactly the brute-force minimum distance for every
// backend.
func TestNearestExactAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	segs := randomSegments(rng, 200, 600)
	opt := lsdist.DefaultOptions()
	dist := lsdist.New(opt)
	for _, backend := range []Backend{Grid(), RTree(), Brute()} {
		s := NewSearcher(segs, opt, backend)
		sq := s.Query()
		for trial := 0; trial < 300; trial++ {
			// Queries from inside, near, and far outside the data extent.
			off := float64(trial%3) * 700
			x, y := rng.Float64()*600+off, rng.Float64()*600-off
			q := geom.Seg(x, y, x+rng.NormFloat64()*30, y+rng.NormFloat64()*30)
			if q.IsDegenerate() {
				continue
			}
			wantD := math.Inf(1)
			for j := range segs {
				if d := dist(q, segs[j]); d < wantD {
					wantD = d
				}
			}
			id, gotD := sq.Nearest(q, 30, nil)
			if id < 0 {
				t.Fatalf("backend %s trial %d: Nearest found nothing, brute min %v", backend.Name(), trial, wantD)
			}
			if gotD != wantD {
				t.Fatalf("backend %s trial %d: Nearest distance %v != brute-force min %v",
					backend.Name(), trial, gotD, wantD)
			}
			if d := dist(q, segs[id]); d != gotD {
				t.Fatalf("backend %s trial %d: returned id %d has distance %v, reported %v",
					backend.Name(), trial, id, d, gotD)
			}
		}
	}
}

// TestNearestTieBreak pins the prefer hook: among equidistant segments the
// preferred one wins regardless of enumeration order.
func TestNearestTieBreak(t *testing.T) {
	// Two identical segments; owner preference must pick the chosen one.
	segs := []geom.Segment{geom.Seg(0, 0, 10, 0), geom.Seg(0, 0, 10, 0)}
	q := geom.Seg(0, 5, 10, 5)
	for _, backend := range []Backend{Grid(), RTree(), Brute()} {
		s := NewSearcher(segs, lsdist.DefaultOptions(), backend)
		sq := s.Query()
		id, _ := sq.Nearest(q, 10, func(cand, incumbent int) bool { return cand > incumbent })
		if id != 1 {
			t.Errorf("backend %s: prefer-higher tie-break returned id %d, want 1", backend.Name(), id)
		}
		id, _ = sq.Nearest(q, 10, func(cand, incumbent int) bool { return cand < incumbent })
		if id != 0 {
			t.Errorf("backend %s: prefer-lower tie-break returned id %d, want 0", backend.Name(), id)
		}
	}
}

// TestSearcherZeroFactorFallsBackToBrute: weights with a zero positional
// component admit no Euclidean lower bound, so every backend request must
// degrade to the exhaustive scan — and still answer exactly.
func TestSearcherZeroFactorFallsBackToBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	segs := randomSegments(rng, 60, 300)
	opt := lsdist.Options{Weights: lsdist.Weights{Perpendicular: 0, Parallel: 1, Angle: 1}}
	dist := lsdist.New(opt)
	s := NewSearcher(segs, opt, Grid())
	if s.Factor() != 0 {
		t.Fatalf("Factor() = %v, want 0 for a zero positional weight", s.Factor())
	}
	sq := s.Query()
	if got := len(sq.CandidatesOf(0, 1e-9, nil)); got != len(segs) {
		t.Fatalf("zero-factor searcher returned %d candidates, want all %d", got, len(segs))
	}
	q := geom.Seg(10, 10, 40, 25)
	wantD := math.Inf(1)
	for j := range segs {
		if d := dist(q, segs[j]); d < wantD {
			wantD = d
		}
	}
	if _, gotD := sq.Nearest(q, 20, nil); gotD != wantD {
		t.Fatalf("zero-factor Nearest = %v, want brute min %v", gotD, wantD)
	}
}

// TestBuildCounter pins that build (the counting constructor every call
// site uses) records each index construction.
func TestBuildCounter(t *testing.T) {
	segs := randomSegments(rand.New(rand.NewSource(1)), 10, 100)
	before := Builds()
	Grid().build(segs)
	NewSearcher(segs, lsdist.DefaultOptions(), RTree())
	if got := Builds() - before; got != 2 {
		t.Fatalf("Builds() advanced by %d, want 2", got)
	}
}

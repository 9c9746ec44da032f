package gridindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func randSegs(rng *rand.Rand, n int) []geom.Segment {
	segs := make([]geom.Segment, n)
	for i := range segs {
		x, y := rng.Float64()*1000, rng.Float64()*600
		segs[i] = geom.Seg(x, y, x+rng.Float64()*80-40, y+rng.Float64()*80-40)
	}
	return segs
}

func bruteCandidates(segs []geom.Segment, q geom.Rect, d float64) []int {
	var out []int
	for i, s := range segs {
		if s.Bounds().DistRect(q) <= d {
			out = append(out, i)
		}
	}
	return out
}

func TestCandidatesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	segs := randSegs(rng, 400)
	idx := Build(segs, 0)
	seen := make([]bool, len(segs))
	for trial := 0; trial < 200; trial++ {
		q := segs[rng.Intn(len(segs))].Bounds()
		d := rng.Float64() * 120
		got := idx.CandidatesOutside(q, d, 0, 0, nil, seen)
		want := bruteCandidates(segs, q, d)
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: candidate mismatch", trial)
			}
		}
	}
}

func TestCandidatesNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Long segments overlap many cells, so dedup matters.
	segs := make([]geom.Segment, 50)
	for i := range segs {
		segs[i] = geom.Seg(0, float64(i), 900, float64(i))
	}
	idx := Build(segs, 10)
	got := idx.CandidatesOutside(segs[25].Bounds(), 30, 0, 0, nil, nil)
	seenID := map[int]bool{}
	for _, id := range got {
		if seenID[id] {
			t.Fatalf("duplicate candidate %d", id)
		}
		seenID[id] = true
	}
	_ = rng
}

func TestScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	segs := randSegs(rng, 100)
	idx := Build(segs, 0)
	seen := make([]bool, len(segs))
	// Repeated queries with the shared scratch must keep agreeing with
	// brute force (i.e. the scratch is properly cleared).
	for trial := 0; trial < 50; trial++ {
		q := segs[trial%len(segs)].Bounds()
		got := idx.CandidatesOutside(q, 50, 0, 0, nil, seen)
		want := bruteCandidates(segs, q, 50)
		if len(got) != len(want) {
			t.Fatalf("trial %d: scratch corrupted: %d vs %d", trial, len(got), len(want))
		}
	}
	for i, v := range seen {
		if v {
			t.Fatalf("seen[%d] left set", i)
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	idx := Build(nil, 0)
	if idx.Len() != 0 {
		t.Errorf("Len = %d", idx.Len())
	}
	got := idx.CandidatesOutside(geom.Rect{Max: geom.Pt(1, 1)}, 10, 0, 0, nil, nil)
	if got != nil {
		t.Errorf("candidates on empty = %v", got)
	}
}

func TestCellSizeHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	segs := randSegs(rng, 100)
	idx := Build(segs, 0)
	if idx.CellSize() <= 0 {
		t.Errorf("heuristic cell size = %v", idx.CellSize())
	}
	fixed := Build(segs, 25)
	if fixed.CellSize() != 25 {
		t.Errorf("explicit cell size = %v", fixed.CellSize())
	}
}

func TestDegenerateSegments(t *testing.T) {
	// All-identical points: extent 0, must not divide by zero.
	segs := []geom.Segment{
		geom.Seg(5, 5, 5, 5),
		geom.Seg(5, 5, 5, 5),
	}
	idx := Build(segs, 0)
	got := idx.CandidatesOutside(segs[0].Bounds(), 1, 0, 0, nil, nil)
	if len(got) != 2 {
		t.Errorf("degenerate candidates = %v", got)
	}
}

func TestQueryOutsideBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	segs := randSegs(rng, 50)
	idx := Build(segs, 0)
	far := geom.Rect{Min: geom.Pt(1e6, 1e6), Max: geom.Pt(1e6+1, 1e6+1)}
	if got := idx.CandidatesOutside(far, 10, 0, 0, nil, nil); len(got) != 0 {
		t.Errorf("far query returned %v", got)
	}
}

// TestZeroLengthSegmentsSpreadBoundedCells is the degenerate-input
// regression for the cell-size heuristic: zero-length segments make
// diagSum 0, and before the O(n) bucket cap the unit-cell fallback sized
// the grid by extent alone — 10 points over a 1e6 extent allocated a
// 4097×4097 grid (~16.8M empty buckets). The cap keeps cells proportional
// to the input, and candidate queries stay exact.
func TestZeroLengthSegmentsSpreadBoundedCells(t *testing.T) {
	segs := make([]geom.Segment, 10)
	for i := range segs {
		x := float64(i) * 1e5
		segs[i] = geom.Seg(x, x, x, x)
	}
	idx := Build(segs, 0)
	if cells := idx.nx * idx.ny; cells > 4*len(segs)+256+2*64 {
		t.Fatalf("degenerate spread input allocated %d cells (nx=%d ny=%d) for %d segments",
			cells, idx.nx, idx.ny, len(segs))
	}
	if !(idx.CellSize() > 0) {
		t.Fatalf("cell size = %v", idx.CellSize())
	}
	for i, s := range segs {
		got := idx.CandidatesOutside(s.Bounds(), 1, 0, 0, nil, nil)
		want := bruteCandidates(segs, s.Bounds(), 1)
		sort.Ints(got)
		if !sliceEq(got, want) {
			t.Fatalf("point %d: candidates %v, want %v", i, got, want)
		}
	}
}

// TestSinglePointExtent pins the all-identical-point case: extent 0 in both
// dimensions, diagSum 0 — a 1×1 grid that still answers queries.
func TestSinglePointExtent(t *testing.T) {
	segs := make([]geom.Segment, 5)
	for i := range segs {
		segs[i] = geom.Seg(42, 17, 42, 17)
	}
	idx := Build(segs, 0)
	if idx.nx != 1 || idx.ny != 1 {
		t.Fatalf("single-point extent built a %dx%d grid", idx.nx, idx.ny)
	}
	if got := idx.CandidatesOutside(segs[0].Bounds(), 0, 0, 0, nil, nil); len(got) != len(segs) {
		t.Fatalf("exact query returned %d of %d", len(got), len(segs))
	}
	far := geom.Rect{Min: geom.Pt(100, 100), Max: geom.Pt(101, 101)}
	if got := idx.CandidatesOutside(far, 1, 0, 0, nil, nil); len(got) != 0 {
		t.Fatalf("far query returned %v", got)
	}
}

// TestNonFiniteCellSizeFallsBackToHeuristic pins that a NaN or Inf cell
// request cannot poison nx/ny (NaN compares false against <= 0, so the old
// guard let it through to int(NaN) grid dimensions): both fall back to the
// same heuristic sizing as cellSize 0.
func TestNonFiniteCellSizeFallsBackToHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	segs := randSegs(rng, 80)
	want := Build(segs, 0)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		idx := Build(segs, bad)
		if idx.CellSize() != want.CellSize() || idx.nx != want.nx || idx.ny != want.ny {
			t.Fatalf("cellSize=%v: built cell=%v grid=%dx%d, heuristic builds cell=%v grid=%dx%d",
				bad, idx.CellSize(), idx.nx, idx.ny, want.CellSize(), want.nx, want.ny)
		}
		q := segs[0].Bounds()
		got := idx.CandidatesOutside(q, 40, 0, 0, nil, nil)
		exp := bruteCandidates(segs, q, 40)
		sort.Ints(got)
		if !sliceEq(got, exp) {
			t.Fatalf("cellSize=%v: candidates diverge from brute force", bad)
		}
	}
}

// TestMixedZeroLengthCandidates covers indexes holding both point segments
// and regular ones — the zero-length rows must stay queryable alongside
// their neighbors.
func TestMixedZeroLengthCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	segs := randSegs(rng, 60)
	for i := 0; i < 20; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*600
		segs = append(segs, geom.Seg(x, y, x, y))
	}
	idx := Build(segs, 0)
	for trial := 0; trial < 60; trial++ {
		q := segs[rng.Intn(len(segs))].Bounds()
		d := rng.Float64() * 80
		got := idx.CandidatesOutside(q, d, 0, 0, nil, nil)
		want := bruteCandidates(segs, q, d)
		sort.Ints(got)
		if !sliceEq(got, want) {
			t.Fatalf("trial %d: candidates diverge from brute force", trial)
		}
	}
}

func sliceEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInsertBeyondExtent pins the conservative-candidate contract for
// segments inserted beyond the extent the grid was built over, on every
// side, and for an infinite query radius: an out-of-extent segment must
// land in the edge cells a query clamps to, not in an empty cell range.
func TestInsertBeyondExtent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, base := range [][]geom.Segment{{geom.Seg(1, 0, 1, 1)}, randSegs(rng, 40)} {
		segs := append([]geom.Segment(nil), base...)
		idx := Build(segs, 0)
		var grown []geom.Segment
		for _, c := range []geom.Point{geom.Pt(-5000, 300), geom.Pt(5000, 300), geom.Pt(500, -5000), geom.Pt(500, 5000), geom.Pt(6000, 6000), geom.Pt(2, 2)} {
			for k := 0; k < 5; k++ {
				x, y := c.X+rng.Float64()*60, c.Y+rng.Float64()*60
				grown = append(grown, geom.Seg(x, y, x+rng.Float64()*40, y+rng.Float64()*40))
			}
		}
		idx.Insert(grown)
		segs = append(segs, grown...)
		for trial := 0; trial < 200; trial++ {
			q := segs[rng.Intn(len(segs))].Bounds()
			d := rng.Float64() * 200
			if trial%10 == 0 {
				d = math.Inf(1)
			}
			got := idx.CandidatesOutside(q, d, 0, 0, nil, nil)
			want := bruteCandidates(segs, q, d)
			sort.Ints(got)
			if !sliceEq(got, want) {
				t.Fatalf("%d-segment base, trial %d (d=%v): candidates %v, want %v", len(base), trial, d, got, want)
			}
		}
	}
}

// TestCandidatesOutsideWindow pins the windowed query against the empty
// window's answer filtered after the fact: on a grid whose segments span
// several cells and whose overlay buckets hold inserted ids (some beyond the
// extent), for windows inside the CSR arena, inside the overlay, across
// their boundary, covering everything and empty, CandidatesOutside returns
// exactly the window (0, 0)'s candidates less the window's ids, in the same
// order, and leaves the seen scratch clear. Every empty window answers as
// (0, 0) does.
func TestCandidatesOutsideWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	segs := randSegs(rng, 300)
	idx := Build(segs, 40)
	grown := randSegs(rng, 100)
	for k := range grown[:20] {
		grown[k] = geom.Seg(grown[k].Start.X+3000, grown[k].Start.Y, grown[k].End.X+3000, grown[k].End.Y)
	}
	idx.Insert(grown)
	segs = append(segs, grown...)
	n, n0 := len(segs), 300
	seen := make([]bool, n)
	windows := [][2]int{{0, 0}, {17, 17}, {250, 40}, {0, n}, {10, 200}, {n0, n}, {n0 + 30, n0 + 60}, {n0 - 50, n0 + 50}, {0, n0}, {n - 1, n}}
	for trial := 0; trial < 300; trial++ {
		q := segs[rng.Intn(n)].Bounds()
		d := rng.Float64() * 150
		all := idx.CandidatesOutside(q, d, 0, 0, nil, seen)
		w := windows[trial%len(windows)]
		if trial >= 2*len(windows) {
			w[0] = rng.Intn(n)
			w[1] = w[0] + rng.Intn(n-w[0]+1)
		}
		want := []int{-1}
		for _, id := range all {
			if id < w[0] || id >= w[1] {
				want = append(want, id)
			}
		}
		got := idx.CandidatesOutside(q, d, w[0], w[1], []int{-1}, seen)
		if !sliceEq(got, want) {
			t.Fatalf("trial %d, window [%d, %d): got %v, want %v", trial, w[0], w[1], got[1:], want[1:])
		}
		if w[0] >= w[1] && !sliceEq(got[1:], all) {
			t.Fatalf("trial %d: empty window [%d, %d) differs from (0, 0)", trial, w[0], w[1])
		}
		for id, v := range seen {
			if v {
				t.Fatalf("trial %d, window [%d, %d): seen[%d] left set", trial, w[0], w[1], id)
			}
		}
	}
}

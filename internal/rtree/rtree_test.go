package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func randRects(rng *rand.Rand, n int) []geom.Rect {
	rects := make([]geom.Rect, n)
	for i := range rects {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		rects[i] = geom.Rect{
			Min: geom.Pt(x, y),
			Max: geom.Pt(x+rng.Float64()*50, y+rng.Float64()*50),
		}
	}
	return rects
}

func bruteWithin(rects []geom.Rect, q geom.Rect, d float64) []int {
	var out []int
	for i, r := range rects {
		if r.DistRect(q) <= d {
			out = append(out, i)
		}
	}
	return out
}

// intersecting returns the ids of every stored rectangle intersecting q:
// the tree's walk at distance 0 with the empty window.
func intersecting(t *Tree, q geom.Rect) []int {
	var ids []int
	t.WithinDistOutside(q, 0, 0, 0, func(id int) bool { ids = append(ids, id); return true })
	return ids
}

func sameIDs(t *testing.T, got, want []int, ctx string) {
	t.Helper()
	sort.Ints(got)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d ids, want %d (%v vs %v)", ctx, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: mismatch at %d: %v vs %v", ctx, i, got, want)
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Errorf("empty: Len=%d Height=%d", tr.Len(), tr.Height())
	}
	tr.WithinDistOutside(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}, 0, 0, 0, func(int) bool {
		t.Error("search on empty tree yielded result")
		return true
	})
}

func TestInsertSearchAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rects := randRects(rng, 500)
	tr := New()
	for i, r := range rects {
		tr.Insert(r, i)
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for trial := 0; trial < 100; trial++ {
		q := randRects(rng, 1)[0]
		sameIDs(t, intersecting(tr, q), bruteWithin(rects, q, 0), "search")
	}
}

func TestWithinDistAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rects := randRects(rng, 400)
	tr := New()
	for i, r := range rects {
		tr.Insert(r, i)
	}
	for trial := 0; trial < 100; trial++ {
		q := randRects(rng, 1)[0]
		d := rng.Float64() * 100
		var got []int
		tr.WithinDistOutside(q, d, 0, 0, func(id int) bool { got = append(got, id); return true })
		sameIDs(t, got, bruteWithin(rects, q, d), "within")
	}
}

func TestBulkMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rects := randRects(rng, 700)
	bulk := Bulk(rects)
	if bulk.Len() != 700 {
		t.Fatalf("bulk Len = %d", bulk.Len())
	}
	for trial := 0; trial < 100; trial++ {
		q := randRects(rng, 1)[0]
		sameIDs(t, intersecting(bulk, q), bruteWithin(rects, q, 0), "bulk search")
	}
	for trial := 0; trial < 50; trial++ {
		q := randRects(rng, 1)[0]
		d := rng.Float64() * 80
		var got []int
		bulk.WithinDistOutside(q, d, 0, 0, func(id int) bool { got = append(got, id); return true })
		sameIDs(t, got, bruteWithin(rects, q, d), "bulk within")
	}
}

func TestBulkEmpty(t *testing.T) {
	tr := Bulk(nil)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	tr.WithinDistOutside(geom.Rect{Max: geom.Pt(1, 1)}, 0, 0, 0, func(int) bool {
		t.Error("unexpected result")
		return true
	})
}

func TestDuplicateRects(t *testing.T) {
	r := geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(10, 10)}
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(r, i)
	}
	got := intersecting(tr, r)
	if len(got) != 100 {
		t.Errorf("duplicates: got %d ids", len(got))
	}
}

func TestHeightLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rects := randRects(rng, 5000)
	tr := New()
	for i, r := range rects {
		tr.Insert(r, i)
	}
	// With maxEntries=16 and minEntries=4, 5000 entries fit within height
	// ceil(log4(5000)) + 1 ≈ 8.
	if h := tr.Height(); h < 2 || h > 8 {
		t.Errorf("Height = %d, out of expected range", h)
	}
	bulk := Bulk(rects)
	if h := bulk.Height(); h < 2 || h > 4 {
		t.Errorf("bulk Height = %d (STR should pack tighter)", h)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rects := randRects(rng, 200)
	tr := Bulk(rects)
	count := 0
	q := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1000, 1000)}
	tr.WithinDistOutside(q, 0, 0, 0, func(int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
	count = 0
	tr.WithinDistOutside(q, 10, 0, 0, func(int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("bounded early stop visited %d", count)
	}
}

func TestPointRects(t *testing.T) {
	// Degenerate (point) rectangles must index fine.
	tr := New()
	for i := 0; i < 50; i++ {
		p := geom.Pt(float64(i), float64(i))
		tr.Insert(geom.Rect{Min: p, Max: p}, i)
	}
	got := intersecting(tr, geom.Rect{Min: geom.Pt(10, 10), Max: geom.Pt(12, 12)})
	if len(got) != 3 {
		t.Errorf("point search = %v", got)
	}
}

func TestMixedInsertAfterBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rects := randRects(rng, 300)
	tr := Bulk(rects[:200])
	for i := 200; i < 300; i++ {
		tr.Insert(rects[i], i)
	}
	if tr.Len() != 300 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for trial := 0; trial < 50; trial++ {
		q := randRects(rng, 1)[0]
		sameIDs(t, intersecting(tr, q), bruteWithin(rects, q, 0), "mixed")
	}
}

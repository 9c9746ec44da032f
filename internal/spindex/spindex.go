// Package spindex is the unified spatial-index subsystem behind every
// ε-neighborhood and nearest-representative query in the repo. TRACLUS
// spends its hot path in exactly two query shapes — "which segments can be
// within TRACLUS distance ε of this one?" (grouping, parameter estimation)
// and "which indexed segment is nearest to this one?" (online
// classification) — and both are answered here, over one index that is
// built once per dataset and shared by every phase.
//
// The TRACLUS distance is not a metric, so no metric index applies
// directly. Instead every backend answers a conservative Euclidean
// candidate query (Within), and the Searcher layered on top converts
// TRACLUS-distance thresholds into sound Euclidean radii through the lower
// bound of internal/lsdist:
//
//	dist(a, b) ≥ c · mindist(a, b),  c = LowerBoundFactor(weights) > 0
//
// which makes radius ε/c complete for ε-range queries and drives the
// expanding-radius exact nearest search. When c = 0 (a positional weight is
// zero) no pruning is sound and the Brute backend — a full scan, the
// paper's Lemma 3 baseline — is the only correct choice; Searcher enforces
// that fallback itself.
//
// Backend contract: Build(segs) must return an index whose queries, for
// every query rectangle q and radius r, report every indexed id i with
// Euclidean mindist(segs[i].Bounds(), q) ≤ r — false positives are allowed
// (callers refine candidates with the exact distance), false negatives are
// not, and an id must not repeat within one query's result. Indexes are
// immutable after Build; Query cursors carry all per-goroutine scratch, so
// one SegmentIndex serves any number of goroutines, each through its own
// cursor.
//
// Two extensions are optional, and the three first-class backends implement
// both. Inserter grows an index in place (Searcher.Grow). OutsideQuery
// answers a query less an id window, without testing the window's ids: the
// ownership query of the neighborhood passes, which score each unordered
// candidate pair from one end only. It also promises a symmetric candidate
// relation (b is reported for a's rectangle exactly when a is for b's),
// which lets a pass derive the Σ|candidates(i)| it reports from the owned
// lists alone. A custom cursor without the extension keeps working: the
// pass takes its full list and drops the window itself.
package spindex

import (
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/gridindex"
	"repro/internal/rtree"
)

// Backend constructs a SegmentIndex over a fixed segment set. The three
// first-class backends are Grid, RTree, and Brute; callers can plug their
// own (planar, geodesic, spatiotemporal, …) as long as it honours the
// conservative-candidate contract in the package documentation.
type Backend interface {
	// Name identifies the backend in flags, logs, and errors.
	Name() string
	// Build indexes segs. The returned index must treat segs as immutable.
	Build(segs []geom.Segment) SegmentIndex
}

// SegmentIndex is an immutable candidate index over the segment set it was
// built from.
type SegmentIndex interface {
	// Len returns the number of indexed segments.
	Len() int
	// Query returns a fresh query cursor holding any per-goroutine scratch.
	// Cursors must not be shared between goroutines; the index itself may.
	Query() Query
}

// Query is a per-goroutine cursor over a SegmentIndex.
type Query interface {
	// Within appends to dst the id of every indexed segment whose minimum
	// Euclidean distance to the rectangle q is at most r, each at most
	// once, and returns the extended slice. Supersets (false positives) are
	// permitted; omissions are not.
	Within(q geom.Rect, r float64, dst []int) []int
}

// builds counts every index constructed through Build since process start.
// Tests read it (via Builds) to pin the single-build data flow: a model
// build must construct exactly one index per dataset it indexes.
var builds atomic.Int64

// Builds returns the number of indexes built through Build so far.
func Builds() int64 { return builds.Load() }

// grows counts every incremental growth through Searcher.Grow since process
// start — the second half of the accounting story: an append must register
// here and NOT in builds, so tests can pin "zero new index builds on the
// append path" without the two operations aliasing.
var grows atomic.Int64

// Grows returns the number of incremental index growths so far.
func Grows() int64 { return grows.Load() }

// OutsideQuery is the optional ownership extension of Query: cursors whose
// backend can skip a run of ids implement it, and SearchQuery type-asserts
// for it, as Searcher.Grow does for Inserter. WithinOutside appends to dst
// exactly the ids Within(q, r, ·) would report that lie outside the window
// [lo, hi), each at most once, and should skip the window without testing
// its ids. The empty window (lo ≥ hi) is Within.
//
// It is what a neighborhood pass over the ids [lo, n) asks of item i: the
// candidates i owns, outside [lo, i). A pass charges every item its full
// candidate count, and since it no longer sees the full list it derives the
// sum (SearchQuery.OwnedCandidatesOf), which takes one more promise: the
// candidate relation is symmetric. For any two indexed segments a and b
// with finite coordinates and any radius r, a query with a's Bounds()
// reports b exactly when a query with b's Bounds() reports a. The
// first-class backends keep it: grid and R-tree report exactly the ids
// whose MBR passes the MBR-distance test (complete enumeration, then a
// symmetric test; geom.Rect.WithinDist), and brute reports every id.
type OutsideQuery interface {
	WithinOutside(q geom.Rect, r float64, lo, hi int, dst []int) []int
}

// Inserter is the optional growth extension of SegmentIndex: backends whose
// indexes can absorb appended segments in place implement it, and
// Searcher.Grow type-asserts for it. Insert appends segs after the ids
// already indexed (the k-th inserted segment gets id Len()+k at call time)
// and must preserve the conservative-candidate contract for old and new ids
// alike. Unlike queries, Insert is NOT safe to run concurrently with
// anything — the owner serialises growth against queries.
type Inserter interface {
	Insert(segs []geom.Segment)
}

// Build constructs backend's index over segs, recording the construction in
// the package build counter. All in-repo call sites build through this
// function (never backend.Build directly) so the counter sees custom
// backends too.
func Build(b Backend, segs []geom.Segment) SegmentIndex {
	builds.Add(1)
	return b.Build(segs)
}

// Grid returns the uniform-grid backend (the clustering default): segment
// MBRs bucketed into a heuristically-sized grid, candidates fetched from
// the cells a grown query rectangle overlaps and refined by exact MBR
// distance.
func Grid() Backend { return gridBackend{} }

// RTree returns the R-tree backend: Sort-Tile-Recursive bulk loading,
// candidates fetched by MBR distance descent (Lemma 3's "appropriate index
// such as the R-tree").
func RTree() Backend { return rtreeBackend{} }

// Brute returns the exhaustive backend: every query reports every indexed
// id, the O(n²) baseline of Lemma 3. It is also the sound fallback when no
// Euclidean lower bound exists for the distance weights, and the only
// correct choice under an arbitrary (non-TRACLUS) distance.
func Brute() Backend { return bruteBackend{} }

// ---- Grid ----

type gridBackend struct{}

func (gridBackend) Name() string { return "grid" }

func (gridBackend) Build(segs []geom.Segment) SegmentIndex {
	return gridIndex{idx: gridindex.Build(segs, 0)}
}

type gridIndex struct{ idx *gridindex.Index }

func (g gridIndex) Len() int { return g.idx.Len() }

func (g gridIndex) Query() Query {
	// The grid's query-time dedup marks are the per-cursor scratch.
	return &gridQuery{idx: g.idx, seen: make([]bool, g.idx.Len())}
}

func (g gridIndex) Insert(segs []geom.Segment) { g.idx.Insert(segs) }

type gridQuery struct {
	idx  *gridindex.Index
	seen []bool
}

func (q *gridQuery) Within(rect geom.Rect, r float64, dst []int) []int {
	return q.WithinOutside(rect, r, 0, 0, dst)
}

func (q *gridQuery) WithinOutside(rect geom.Rect, r float64, lo, hi int, dst []int) []int {
	// The index may have grown since this cursor was created; resize the
	// dedup scratch to the live segment count before delegating.
	if n := q.idx.Len(); len(q.seen) < n {
		q.seen = make([]bool, n)
	}
	return q.idx.CandidatesOutside(rect, r, lo, hi, dst, q.seen)
}

// ---- R-tree ----

type rtreeBackend struct{}

func (rtreeBackend) Name() string { return "rtree" }

func (rtreeBackend) Build(segs []geom.Segment) SegmentIndex {
	rects := make([]geom.Rect, len(segs))
	for i, s := range segs {
		rects[i] = s.Bounds()
	}
	return rtreeIndex{tree: rtree.Bulk(rects)}
}

type rtreeIndex struct{ tree *rtree.Tree }

func (t rtreeIndex) Len() int { return t.tree.Len() }

func (t rtreeIndex) Query() Query { return rtreeQuery{tree: t.tree} }

func (t rtreeIndex) Insert(segs []geom.Segment) {
	base := t.tree.Len()
	for k, s := range segs {
		t.tree.Insert(s.Bounds(), base+k)
	}
}

type rtreeQuery struct{ tree *rtree.Tree }

func (q rtreeQuery) Within(rect geom.Rect, r float64, dst []int) []int {
	return q.WithinOutside(rect, r, 0, 0, dst)
}

func (q rtreeQuery) WithinOutside(rect geom.Rect, r float64, lo, hi int, dst []int) []int {
	q.tree.WithinDistOutside(rect, r, lo, hi, func(id int) bool {
		dst = append(dst, id)
		return true
	})
	return dst
}

// ---- Brute ----

type bruteBackend struct{}

func (bruteBackend) Name() string { return "brute" }

func (bruteBackend) Build(segs []geom.Segment) SegmentIndex {
	return &bruteIndex{n: len(segs)}
}

type bruteIndex struct{ n int }

func (b *bruteIndex) Len() int { return b.n }

// Query cursors reference the index rather than copying n so a cursor
// created before a Grow sees appended ids, matching the pointer-backed grid
// and R-tree cursors.
func (b *bruteIndex) Query() Query { return bruteQuery{idx: b} }

func (b *bruteIndex) Insert(segs []geom.Segment) { b.n += len(segs) }

type bruteQuery struct{ idx *bruteIndex }

func (q bruteQuery) Within(rect geom.Rect, r float64, dst []int) []int {
	return q.WithinOutside(rect, r, 0, 0, dst)
}

func (q bruteQuery) WithinOutside(_ geom.Rect, _ float64, lo, hi int, dst []int) []int {
	for j := 0; j < q.idx.n; j++ {
		if j < lo || j >= hi {
			dst = append(dst, j)
		}
	}
	return dst
}

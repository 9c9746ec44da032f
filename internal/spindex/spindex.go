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
// candidate query, and the Searcher layered on top converts TRACLUS-distance
// thresholds into sound Euclidean radii through the lower bound of
// internal/lsdist:
//
//	dist(a, b) ≥ c · mindist(a, b),  c = LowerBoundFactor(weights) > 0
//
// which makes radius ε/c complete for ε-range queries and drives the
// expanding-radius exact nearest search. When c = 0 (a positional weight is
// zero) no pruning is sound and the Brute backend — a full scan, the
// paper's Lemma 3 baseline — is the only correct choice; Searcher enforces
// that fallback itself.
//
// The backend set is closed: Grid, RTree and Brute. Each one's index meets
// one contract (index and cursor below). A cursor's within(q, r, lo, hi)
// reports every indexed id outside the window [lo, hi) whose Bounds() lie
// within Euclidean distance r of the rectangle q, each at most once, and
// skips the window without testing its ids; the empty window (lo ≥ hi) is
// the full query. Grid and R-tree report exactly the ids whose MBR passes
// the symmetric MBR-distance test (geom.Rect.WithinDist), and brute reports
// every id, so the candidate relation is symmetric: for any two indexed
// segments a and b with finite coordinates and any radius, a query with
// a's Bounds() reports b exactly when a query with b's Bounds() reports a.
// The ownership query of the neighborhood passes rests on that
// (SearchQuery.OwnedCandidatesOf). Every index also grows in place
// (Searcher.Grow).
package spindex

import (
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/gridindex"
	"repro/internal/rtree"
)

// Backend names one of the three spatial-index backends. It is a closed,
// comparable value: Grid, RTree and Brute are the only ones, and the zero
// value is the grid.
type Backend struct{ kind backendKind }

type backendKind uint8

const (
	gridKind backendKind = iota
	rtreeKind
	bruteKind
)

var backendNames = [...]string{gridKind: "grid", rtreeKind: "rtree", bruteKind: "brute"}

// Grid returns the uniform-grid backend (the clustering default and the
// zero Backend): segment MBRs bucketed into a heuristically-sized grid,
// candidates fetched from the cells a grown query rectangle overlaps and
// refined by exact MBR distance.
func Grid() Backend { return Backend{gridKind} }

// RTree returns the R-tree backend: Sort-Tile-Recursive bulk loading,
// candidates fetched by MBR distance descent (Lemma 3's "appropriate index
// such as the R-tree").
func RTree() Backend { return Backend{rtreeKind} }

// Brute returns the exhaustive backend: every query reports every indexed
// id, the O(n²) baseline of Lemma 3. It is also the sound fallback when no
// Euclidean lower bound exists for the distance weights, and the only
// correct choice under an arbitrary (non-TRACLUS) distance.
func Brute() Backend { return Backend{bruteKind} }

// Name identifies the backend in flags, requests, snapshots and errors.
func (b Backend) Name() string { return backendNames[b.kind] }

// index is a backend's candidate index over the segment set it was built
// from. Queries run through per-goroutine cursors, so one index serves any
// number of goroutines. insert appends segs after the n ids already indexed
// (segs[k] gets id n+k) and keeps the contract for old and new ids alike;
// it is NOT safe to run concurrently with anything — the owner serialises
// growth against queries.
type index interface {
	cursor() cursor
	insert(segs []geom.Segment)
}

// cursor is a per-goroutine query handle over an index: within appends to
// dst the candidates of the package contract and returns the extended
// slice. Cursors created before an insert see the inserted ids.
type cursor interface {
	within(q geom.Rect, r float64, lo, hi int, dst []int) []int
}

// builds counts every index constructed since process start. Tests read it
// (via Builds) to pin the single-build data flow: a model build must
// construct exactly one index per dataset it indexes.
var builds atomic.Int64

// Builds returns the number of indexes built so far.
func Builds() int64 { return builds.Load() }

// grows counts every incremental growth through Searcher.Grow since process
// start — the second half of the accounting story: an append must register
// here and NOT in builds, so tests can pin "zero new index builds on the
// append path" without the two operations aliasing.
var grows atomic.Int64

// Grows returns the number of incremental index growths so far.
func Grows() int64 { return grows.Load() }

// build constructs b's index over segs and records it in the build
// counter. The index treats segs as immutable.
func (b Backend) build(segs []geom.Segment) index {
	builds.Add(1)
	switch b.kind {
	case rtreeKind:
		rects := make([]geom.Rect, len(segs))
		for i, s := range segs {
			rects[i] = s.Bounds()
		}
		return rtreeIndex{tree: rtree.Bulk(rects)}
	case bruteKind:
		return &bruteIndex{n: len(segs)}
	}
	return gridIndex{idx: gridindex.Build(segs, 0)}
}

// ---- Grid ----

type gridIndex struct{ idx *gridindex.Index }

func (g gridIndex) cursor() cursor {
	// The grid's query-time dedup marks are the per-cursor scratch.
	return &gridCursor{idx: g.idx, seen: make([]bool, g.idx.Len())}
}

func (g gridIndex) insert(segs []geom.Segment) { g.idx.Insert(segs) }

type gridCursor struct {
	idx  *gridindex.Index
	seen []bool
}

func (c *gridCursor) within(rect geom.Rect, r float64, lo, hi int, dst []int) []int {
	// The index may have grown since this cursor was created; resize the
	// dedup scratch to the live segment count before delegating.
	if n := c.idx.Len(); len(c.seen) < n {
		c.seen = make([]bool, n)
	}
	return c.idx.CandidatesOutside(rect, r, lo, hi, dst, c.seen)
}

// ---- R-tree ----

// rtreeIndex is its own cursor: a tree walk needs no scratch.
type rtreeIndex struct{ tree *rtree.Tree }

func (t rtreeIndex) cursor() cursor { return t }

func (t rtreeIndex) insert(segs []geom.Segment) {
	base := t.tree.Len()
	for k, s := range segs {
		t.tree.Insert(s.Bounds(), base+k)
	}
}

func (t rtreeIndex) within(rect geom.Rect, r float64, lo, hi int, dst []int) []int {
	t.tree.WithinDistOutside(rect, r, lo, hi, func(id int) bool {
		dst = append(dst, id)
		return true
	})
	return dst
}

// ---- Brute ----

// bruteIndex is its own cursor too. Cursors hold the pointer, so one
// created before a Grow sees the appended ids.
type bruteIndex struct{ n int }

func (b *bruteIndex) cursor() cursor { return b }

func (b *bruteIndex) insert(segs []geom.Segment) { b.n += len(segs) }

func (b *bruteIndex) within(_ geom.Rect, _ float64, lo, hi int, dst []int) []int {
	for j := 0; j < b.n; j++ {
		if j < lo || j >= hi {
			dst = append(dst, j)
		}
	}
	return dst
}

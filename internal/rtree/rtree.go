// Package rtree implements an in-memory R-tree over axis-aligned rectangles
// (Guttman, SIGMOD 1984 — reference [10] of the TRACLUS paper). TRACLUS
// Lemma 3 observes that ε-neighborhood queries drop from O(n) to O(log n)
// per query "if we use an appropriate index such as the R-tree"; this
// package is that substrate.
//
// Because the TRACLUS distance is not a metric, the tree is used with the
// conservative Euclidean prefilter of DESIGN.md §3: candidates are fetched
// by MBR distance and refined with the exact distance by the caller.
package rtree

import (
	"math"

	"repro/internal/geom"
)

const (
	maxEntries = 16
	minEntries = 4
)

type entry struct {
	rect  geom.Rect
	id    int   // leaf payload (valid when child == nil)
	child *node // nil for leaf entries
}

type node struct {
	leaf    bool
	entries []entry
}

// Tree is an R-tree mapping rectangles to integer ids. The zero value is
// ready to use. A Tree is not safe for concurrent mutation; concurrent
// WithinDistOutside calls are safe once building is done.
type Tree struct {
	root *node
	size int
	path []pathEntry // insertion path scratch, reused across Inserts
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of stored rectangles.
func (t *Tree) Len() int { return t.size }

// Height returns the height of the tree (0 when empty, 1 for a sole leaf).
func (t *Tree) Height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if n.leaf || len(n.entries) == 0 {
			break
		}
		n = n.entries[0].child
	}
	return h
}

// Insert adds a rectangle with the given id.
func (t *Tree) Insert(r geom.Rect, id int) {
	t.size++
	if t.root == nil {
		t.root = &node{leaf: true}
	}
	leaf := t.chooseLeaf(t.root, r)
	leaf.entries = append(leaf.entries, entry{rect: r, id: id})
	t.adjust(leaf)
}

// pathEntry records the parent chain walked by chooseLeaf so splits can
// propagate bottom-up.
type pathEntry struct {
	n   *node
	idx int // index of child entry within parent
}

func (t *Tree) chooseLeaf(n *node, r geom.Rect) *node {
	t.path = t.path[:0]
	for !n.leaf {
		best, bestEnl, bestArea := -1, math.MaxFloat64, math.MaxFloat64
		for i := range n.entries {
			enl := n.entries[i].rect.EnlargementNeeded(r)
			area := n.entries[i].rect.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n.entries[best].rect = n.entries[best].rect.Union(r)
		t.path = append(t.path, pathEntry{n, best})
		n = n.entries[best].child
	}
	return n
}

// adjust splits overflowing nodes bottom-up along the recorded path.
func (t *Tree) adjust(n *node) {
	for level := len(t.path); ; level-- {
		if len(n.entries) <= maxEntries {
			break
		}
		left, right := split(n)
		if level == 0 {
			// n was the root: grow the tree.
			t.root = &node{entries: []entry{
				{rect: mbr(left), child: left},
				{rect: mbr(right), child: right},
			}}
			return
		}
		parent := t.path[level-1].n
		idx := t.path[level-1].idx
		parent.entries[idx] = entry{rect: mbr(left), child: left}
		parent.entries = append(parent.entries, entry{rect: mbr(right), child: right})
		n = parent
	}
	// Tighten MBRs up the remaining path.
	for level := len(t.path) - 1; level >= 0; level-- {
		pe := t.path[level]
		pe.n.entries[pe.idx].rect = mbr(pe.n.entries[pe.idx].child)
	}
}

func mbr(n *node) geom.Rect {
	r := n.entries[0].rect
	for _, e := range n.entries[1:] {
		r = r.Union(e.rect)
	}
	return r
}

// split performs Guttman's quadratic split, returning two nodes that
// partition n's entries.
func split(n *node) (*node, *node) {
	es := n.entries
	// Pick seeds: the pair wasting the most area if grouped.
	s1, s2, worst := 0, 1, -math.MaxFloat64
	for i := 0; i < len(es); i++ {
		for j := i + 1; j < len(es); j++ {
			d := es[i].rect.Union(es[j].rect).Area() - es[i].rect.Area() - es[j].rect.Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	left := &node{leaf: n.leaf, entries: []entry{es[s1]}}
	right := &node{leaf: n.leaf, entries: []entry{es[s2]}}
	lr, rr := es[s1].rect, es[s2].rect
	rest := make([]entry, 0, len(es)-2)
	for i, e := range es {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// If one group must take all remaining to reach minEntries, do it.
		if len(left.entries)+len(rest) == minEntries {
			left.entries = append(left.entries, rest...)
			for _, e := range rest {
				lr = lr.Union(e.rect)
			}
			break
		}
		if len(right.entries)+len(rest) == minEntries {
			right.entries = append(right.entries, rest...)
			for _, e := range rest {
				rr = rr.Union(e.rect)
			}
			break
		}
		// PickNext: entry with greatest preference difference.
		best, bestDiff := 0, -1.0
		for i, e := range rest {
			d1 := lr.EnlargementNeeded(e.rect)
			d2 := rr.EnlargementNeeded(e.rect)
			if diff := math.Abs(d1 - d2); diff > bestDiff {
				best, bestDiff = i, diff
			}
		}
		e := rest[best]
		rest[best] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		d1, d2 := lr.EnlargementNeeded(e.rect), rr.EnlargementNeeded(e.rect)
		switch {
		case d1 < d2, d1 == d2 && lr.Area() <= rr.Area():
			left.entries = append(left.entries, e)
			lr = lr.Union(e.rect)
		default:
			right.entries = append(right.entries, e)
			rr = rr.Union(e.rect)
		}
	}
	return left, right
}

// WithinDistOutside calls fn for every stored rectangle with an id outside
// the window [lo, hi) whose minimum Euclidean distance to q is at most d: a
// leaf entry with lo ≤ id < hi is skipped before its rectangle is tested,
// and the empty window (lo ≥ hi) visits every such rectangle. This is the
// primitive behind the ε-query prefilter. Returning false from fn stops the
// walk early.
func (t *Tree) WithinDistOutside(q geom.Rect, d float64, lo, hi int, fn func(id int) bool) {
	if t.root != nil {
		withinNode(t.root, q, d, lo, hi, fn)
	}
}

func withinNode(n *node, q geom.Rect, d float64, lo, hi int, fn func(id int) bool) bool {
	for _, e := range n.entries {
		if e.child == nil && lo <= e.id && e.id < hi {
			continue
		}
		if e.rect.BeyondDist(q, d) {
			continue
		}
		if e.child == nil {
			if !fn(e.id) {
				return false
			}
		} else if !withinNode(e.child, q, d, lo, hi, fn) {
			return false
		}
	}
	return true
}

// Bulk builds a tree from rectangles using Sort-Tile-Recursive packing,
// which produces well-shaped leaves much faster than repeated inserts. The
// id of rects[i] is i.
func Bulk(rects []geom.Rect) *Tree {
	t := &Tree{size: len(rects)}
	if len(rects) == 0 {
		return t
	}
	leaves := packLeaves(rects)
	t.root = packUp(leaves)
	return t
}

func packLeaves(rects []geom.Rect) []*node {
	type idRect struct {
		r  geom.Rect
		id int
	}
	items := make([]idRect, len(rects))
	for i, r := range rects {
		items[i] = idRect{r, i}
	}
	// Sort by center X, tile into vertical slices, sort each by center Y.
	sortBy(items, func(a, b idRect) bool { return a.r.Center().X < b.r.Center().X })
	n := len(items)
	leafCount := (n + maxEntries - 1) / maxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	perSlice := sliceCount * maxEntries
	var leaves []*node
	for s := 0; s < n; s += perSlice {
		hi := s + perSlice
		if hi > n {
			hi = n
		}
		slice := items[s:hi]
		sortBy(slice, func(a, b idRect) bool { return a.r.Center().Y < b.r.Center().Y })
		for i := 0; i < len(slice); i += maxEntries {
			j := i + maxEntries
			if j > len(slice) {
				j = len(slice)
			}
			leaf := &node{leaf: true}
			for _, it := range slice[i:j] {
				leaf.entries = append(leaf.entries, entry{rect: it.r, id: it.id})
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func packUp(nodes []*node) *node {
	for len(nodes) > 1 {
		var next []*node
		for i := 0; i < len(nodes); i += maxEntries {
			j := i + maxEntries
			if j > len(nodes) {
				j = len(nodes)
			}
			parent := &node{}
			for _, c := range nodes[i:j] {
				parent.entries = append(parent.entries, entry{rect: mbr(c), child: c})
			}
			next = append(next, parent)
		}
		nodes = next
	}
	return nodes[0]
}

// sortBy is a tiny generic insertion-free sort wrapper (avoids pulling in
// reflect-based sorting for a hot path).
func sortBy[T any](s []T, less func(a, b T) bool) {
	// Heapsort: in-place, no allocation, O(n log n) worst case.
	n := len(s)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(s, i, n, less)
	}
	for i := n - 1; i > 0; i-- {
		s[0], s[i] = s[i], s[0]
		siftDown(s, 0, i, less)
	}
}

func siftDown[T any](s []T, lo, hi int, less func(a, b T) bool) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			return
		}
		if child+1 < hi && less(s[child], s[child+1]) {
			child++
		}
		if !less(s[root], s[child]) {
			return
		}
		s[root], s[child] = s[child], s[root]
		root = child
	}
}

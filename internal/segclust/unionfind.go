package segclust

import "sync/atomic"

// unionFind is a concurrent disjoint-set forest over [0, n) with lock-free
// union and find (CAS on parent pointers). The union policy is "larger root
// points to smaller root", which makes the structure ABA-free — a parent
// value only ever decreases, so a CAS from an observed parent can only
// succeed while that parent is still current — and makes the final
// partition deterministic regardless of goroutine interleaving: once all
// unions have completed (a barrier the caller provides, e.g. par.ForEachCtx
// returning), the root of every component is exactly its minimum member
// index.
//
// This is the classic wait-free-union scheme used by parallel
// connected-components kernels; path halving in find keeps chains short
// without needing ranks.
type unionFind struct {
	parent []atomic.Int32
}

// newUnionFind returns n singleton sets. Element ids must fit in int32,
// which the callers guarantee (the grouping input is bounded far below
// 2³¹ segments).
func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]atomic.Int32, n)}
	for i := range u.parent {
		u.parent[i].Store(int32(i))
	}
	return u
}

// find returns the current root of x, halving the path as it walks: each
// redirect moves a node from its parent to its grandparent, both of which
// are ancestors, so a concurrent find can at worst observe a slightly
// longer chain — never an incorrect root.
func (u *unionFind) find(x int32) int32 {
	for {
		p := u.parent[x].Load()
		if p == x {
			return x
		}
		gp := u.parent[p].Load()
		if gp == p {
			return p
		}
		u.parent[x].CompareAndSwap(p, gp)
		x = gp
	}
}

// union merges the sets of a and b. Safe for concurrent use; on CAS failure
// (another union moved one of the roots first) it re-resolves both roots
// and retries, so the merge is never lost.
func (u *unionFind) union(a, b int32) {
	for {
		ra, rb := u.find(a), u.find(b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		// rb is a root iff its parent is still itself; the CAS both checks
		// that and performs the link, so a root stolen by a concurrent
		// union just forces a retry.
		if u.parent[rb].CompareAndSwap(rb, ra) {
			return
		}
	}
}

// UnionFind is the exported face of the deterministic disjoint-set forest,
// for sibling subsystems that replay ε-graph merges outside this package
// (internal/dendro's dendrogram cuts) and then hand it to Label. It keeps
// the min-root union policy, so after all unions the root of every
// component is its minimum member — exactly what label's numbering pass
// relies on.
type UnionFind struct{ u *unionFind }

// NewUnionFind returns n singleton sets over [0, n).
func NewUnionFind(n int) *UnionFind { return &UnionFind{u: newUnionFind(n)} }

// Union merges the sets of a and b.
func (f *UnionFind) Union(a, b int32) { f.u.union(a, b) }

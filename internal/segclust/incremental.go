package segclust

// Incremental ε-graph clustering: answer "what is the clustering now?" under
// appends without recomputing it from scratch. The ε-graph labeling (link,
// then label) makes the update rule exact rather than approximate, because
// every derived quantity is a set-determined function of the neighborhoods:
//
//   - Appending items only GROWS neighborhoods (no deletions), so weighted
//     ε-cardinalities only increase and core segments never stop being core.
//   - The core graph only gains vertices and edges, so its connected
//     components only merge — the min-root union-find absorbs new edges
//     incrementally and its roots remain component minima regardless of the
//     order the edges arrived in.
//   - Cluster ids (components by ascending minimum core index) and border
//     assignment (min cluster id over a border item's core neighbors) are
//     pure functions of the final core flags, components, and neighborhoods.
//
// So the only O(n) work an append re-runs is label's cheap numbering scan
// and border pass; the expensive part — ε-range queries — runs only for the
// Δ appended items, against the one grown index. The result is the
// clustering a batch run over the concatenated items would produce: same
// labels, same cluster order, same Removed. (DistCalls is the one field that
// legitimately differs: the base items were queried against the smaller
// pre-append index, so the incremental total counts fewer candidate
// evaluations than a from-scratch batch run would spend. Callers comparing
// against batch must exclude DistCalls from the fingerprint.) A batch
// grouping is the append of every item to the empty ε-graph, so batch runs
// and appends are one body (Incremental.append) rather than two that tests
// keep equal.
//
// Weighted cardinalities are float sums, and they match batch bit for bit
// even for fractional weights: every neighborhood is kept in ascending id
// order and its weight is the left-to-right sum in that order. An appended
// id exceeds every old one, so an old item's grown sum is its old sum plus
// the appended neighbors' weights in ascending order — the batch sum.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrAppendBroken reports an append on an Incremental whose previous append
// failed or was cancelled midway: its retained state is unusable and the
// caller must rebuild from scratch.
var ErrAppendBroken = errors.New("segclust: incremental state broken by an earlier failed append; rebuild required")

// grow returns a union-find over [0, n) whose first len(u.parent) elements
// carry u's current component structure and whose new elements are
// singletons. It is a fresh value (the old forest stays readable) and must
// not race concurrent unions on u — the appender serialises epochs.
func (u *unionFind) grow(n int) *unionFind {
	g := &unionFind{parent: make([]atomic.Int32, n)}
	for i := range u.parent {
		g.parent[i].Store(u.parent[i].Load())
	}
	for i := len(u.parent); i < n; i++ {
		g.parent[i].Store(int32(i))
	}
	return g
}

// grow appends items to the shared index in place: the searcher's pool,
// index backend, and item set all grow, and subsequent views and cursors
// serve the concatenated set.
func (s *SharedIndex) grow(newItems []Item) {
	s.search.Grow(segments(newItems))
	s.items = append(s.items, newItems...)
}

// Incremental is a clustering that stays current under appends. Every
// grouping is one: a build (NewIncrementalCtx, and RunSharedCtx, which keeps
// only the Result) appends the initial items to an empty Incremental, and
// thereafter AppendCtx folds new trajectories' items in through the same
// body for O(Δ) query work plus label's two O(n) passes.
//
// An Incremental owns its SharedIndex exclusively for writing: AppendCtx
// grows the index in place, so the owner must serialise appends against each
// other AND against any concurrent queries on the same index (the serving
// layer's lineage lock does this). Results returned earlier remain valid —
// they are snapshots, not views.
type Incremental struct {
	shared   *SharedIndex
	cfg      Config
	minTrajs int

	// hs holds the live neighborhood and weighted ε-cardinality of every
	// item; appends extend it in place.
	hs     *hoodSet
	core   []bool // live core flags (monotone: set once, never cleared)
	uf     *unionFind
	calls  int // candidate pairs refined across all epochs, each unordered pair scored once
	res    *Result
	broken bool
}

// NewIncrementalCtx runs the initial grouping over shared's current items
// with retained state, so the clustering can absorb appends afterwards. It
// is the grouping RunSharedCtx(ctx, shared, cfg, onItem) runs, so the
// initial Result (available via Result()) is that call's — labels, cluster
// order, Removed, and DistCalls — at every worker count. Custom distance
// functions are not supported (they have no index to grow); cfg.Backend is
// ignored in favour of shared's backend, exactly as RunSharedCtx.
//
// lists is optional: at most one non-nil NeighborLists over shared's items
// with MaxEps ≥ cfg.Eps, from which the grouping's one neighborhood pass
// reads every within-ε pair instead of scoring the candidates. The pass
// still charges each item its owned candidates at ε (a count-only query), so
// the Result, DistCalls included, is the same either way. Appends score their
// pairs as usual.
func NewIncrementalCtx(ctx context.Context, shared *SharedIndex, cfg Config, onItem func(), lists ...NeighborLists) (*Incremental, error) {
	var src sourceFor
	switch {
	case len(lists) > 1:
		return nil, fmt.Errorf("segclust: NewIncrementalCtx takes at most one NeighborLists, got %d", len(lists))
	case len(lists) == 1 && lists[0] != nil:
		l := lists[0]
		if cfg.Eps > l.MaxEps() {
			return nil, &ConfigError{Field: "Eps", Value: cfg.Eps,
				Reason: fmt.Sprintf("exceeds the neighbor lists' maximum ε %g", l.MaxEps())}
		}
		src = fromLists(l)
	}
	return group(ctx, shared.items, cfg, src, onItem, shared)
}

// Result returns the clustering over every item appended so far. The value
// is immutable; later appends produce new Results.
func (inc *Incremental) Result() *Result { return inc.res }

// Shared returns the underlying (growing) shared index.
func (inc *Incremental) Shared() *SharedIndex { return inc.shared }

// result labels the live ε-graph and applies the Definition-10 filter and
// canonical ordering.
func (inc *Incremental) result(ctx context.Context) (*Result, error) {
	labels, err := label(ctx, inc.cfg.Workers, inc.core, inc.uf, inc.hs.hood)
	if err != nil {
		return nil, err
	}
	return ResultFromLabels(inc.shared.items, labels, inc.minTrajs, inc.calls), nil
}

// AppendCtx folds newItems into the clustering: the shared index grows, only
// the Δ new items run ε-range queries, their neighbors' cardinalities are
// updated through symmetry, the union-find absorbs the new core-core edges,
// and label re-runs. The returned Result
// equals a batch run over the concatenated items, weights bit for bit (see
// the package comment for the one DistCalls caveat).
//
// A failed or cancelled append leaves the Incremental broken — the index may
// have grown while the derived state did not — and every later call returns
// ErrAppendBroken; the previous Result() remains valid. Appends must be
// serialised by the caller.
func (inc *Incremental) AppendCtx(ctx context.Context, newItems []Item) (*Result, error) {
	if inc.broken {
		return nil, ErrAppendBroken
	}
	if len(newItems) == 0 {
		return inc.res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n0 := len(inc.shared.items)
	inc.shared.grow(newItems)
	// Any exit past this point without full completion breaks the state.
	res, err := inc.append(ctx, n0, nil, nil)
	if err != nil {
		inc.broken = true
		return nil, err
	}
	inc.res = res
	return res, nil
}

// append folds shared's items [n0, n) into the ε-graph: a build is the
// append of every item to an empty Incremental (n0 = 0), and AppendCtx the
// append of Δ grown items. src is where the pass finds the new items'
// neighborhoods and onItem ticks once per queried item (see hoodSet.extend).
func (inc *Incremental) append(ctx context.Context, n0 int, src sourceFor, onItem func()) (*Result, error) {
	n := len(inc.shared.items)

	// Phase 1 — the only expensive work: ε-range queries for the new items
	// against the grown index, across workers. Each new item scores the old
	// items and the new ones from itself on; the pass's reflection gives
	// every new item its full neighborhood (old and new neighbors alike —
	// the index already holds everything) and, by symmetry
	// (j ∈ Nε(i) ⇔ i ∈ Nε(j)), gives each old neighbor j the new item i in
	// its neighborhood and i's weight in its cardinality.
	calls, err := inc.hs.extend(ctx, inc.shared, inc.cfg.Eps, inc.cfg.Workers, src, onItem)
	inc.calls += calls
	if err != nil {
		return nil, err
	}
	hs := inc.hs

	// Phase 2 — core flags for the new items, and core promotion for the
	// old ones. Monotone: grown cardinalities can only promote. Pre-existing
	// items that crossed MinLns are the "dirtied" frontier whose edges
	// phase 3 must add, beside the new items'. A build (n0 = 0) leaves work
	// nil: every item is new, and link scans them all.
	inc.core = append(inc.core, make([]bool, n-n0)...)
	for i := n0; i < n; i++ {
		inc.core[i] = hs.w[i] >= inc.cfg.MinLns
	}
	var work []int32
	if n0 > 0 {
		work = make([]int32, 0, n-n0)
		for i := n0; i < n; i++ {
			work = append(work, int32(i))
		}
		for j := 0; j < n0; j++ {
			if !inc.core[j] && hs.w[j] >= inc.cfg.MinLns {
				inc.core[j] = true
				work = append(work, int32(j))
			}
		}
	}

	// Phase 3 — link the new core-core edges. Every edge of the grown core
	// graph that the old forest lacks has at least one endpoint that is a
	// new item or a promoted one (an edge between two previously-core old
	// items was already unioned), so scanning those endpoints' full
	// neighborhoods covers them all. Min-root unions are order-free, so the
	// grown forest's roots equal a from-scratch batch forest's.
	uf := inc.uf.grow(n)
	if err := link(ctx, inc.cfg.Workers, inc.core, uf, hs.hood, work); err != nil {
		return nil, err
	}
	inc.uf = uf

	// Phase 4 — label's numbering and border passes, then the canonical
	// Definition-10 filter and ordering.
	return inc.result(ctx)
}

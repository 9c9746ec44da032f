// Package dendro precomputes the ε-graph's complete merge structure over
// partitioned segments — a dendrogram — so the exact TRACLUS segment
// clustering at *any* density ε ≤ MaxEps can be reconstructed without
// touching the distance kernels again.
//
// The structure is three flat arrays built from one spindex candidate +
// refine pass at the maximum radius of interest:
//
//   - per-item neighbor lists: every j with dist(i, j) ≤ MaxEps, sorted by
//     (distance, id), with prefix-summed neighbor weights — so the weighted
//     ε-cardinality |Nε(i)| at any ε is a binary search plus one array read,
//     and an item's core distance (the smallest ε making it core) is the
//     distance at which the prefix sum first reaches MinLns;
//   - the core-core edge candidates: every pair (a < b) within MaxEps,
//     sorted by (distance, a, b) — the union-find replay log, a function of
//     the lists that a build, an extension and a snapshot restore derive
//     alike (edgesFrom). A cut at ε replays the prefix of edges with d ≤ ε
//     whose endpoints are both core at ε through the deterministic min-root
//     union-find (segclust.UnionFind), which ends in exactly the forest the
//     fresh grouping's link step builds;
//   - the item set itself (geometry + trajectory ids + weights), so cuts,
//     representatives, and SSEs remain computable from a snapshot-restored
//     dendrogram with no original dataset at hand.
//
// Extend grows the structure under appends instead of rebuilding it: only
// the Δ appended items run range queries, on the grown index at MaxEps; each
// new pair is merged into both endpoints' sorted lists, the running weight
// sums are recomputed for the touched lists only, and the appended items'
// edges merge into the replay log. Its cost is the Δ's candidate + refine
// work plus one O(E) copy of the flat arrays (the old structure stays
// immutable — earlier epochs keep serving it), against the n range queries
// and n list sorts of a build. A build is itself that extension applied to
// the empty dendrogram (FromShared), so the result is bit-identical to a
// build over the same items by construction, not by a second body.
//
// The lists also feed an auto build's grouping: each ε-neighborhood is the
// d ≤ ε prefix of an item's list (Within), so segclust reads it there
// instead of scoring it (segclust.NeighborLists), and only charges the
// candidates through a count-only query. That grouping sums each
// neighborhood's weight in id order itself, so it is exact for every weight.
//
// CutAt replicates segclust's grouping step for step: it computes the core
// predicate and replays the merges itself, then hands the numbering and
// border passes to segclust.Label — the very passes every batch run and
// append uses — and the Definition-10 trajectory filter to
// segclust.ResultFromLabels, so its Result is bit-identical to a fresh
// segclust.Run at the same parameters, for every weight: its core test sums
// each neighborhood in id order as the grouping does. The equivalence suite
// pins this across backends and worker counts, and FuzzCutOracle over
// fractional weights.
//
// One caveat bounds NeighborhoodWeights, the annealer's input: it reads the
// running sums, which accumulate in (distance, id) order, while a fresh pass
// accumulates in ascending id order. For order-independent sums — unit or
// integer weights, which is every trajectory source in this repo
// (core.PartitionAllCtx defaults Weight to 1) — the sums are exactly equal.
// Exotic fractional weights could differ in the last ulp; such datasets
// should validate an estimate against the per-ε oracle
// (segclust.SharedIndex.NeighborhoodWeights).
package dendro

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/par"
	"repro/internal/segclust"
)

// edge is one merge candidate of the replay log: items a < b at exact
// distance d ≤ MaxEps.
type edge struct {
	a, b int32
	d    float64
}

// Dendrogram is the immutable multi-ε merge structure. Build once, cut at
// any ε ≤ MaxEps; cuts issue zero distance evaluations (the structure
// holds no searcher — there is nothing to evaluate with).
type Dendrogram struct {
	items  []segclust.Item
	maxEps float64
	calls  int // candidate pairs refined building it, each unordered pair scored once

	// Flat neighbor store: item i's neighbors are ids[off[i]:off[i+1]],
	// distance-aligned in dist, sorted by (dist, id), self included at
	// distance 0. cum is the running weight sum within each item's run.
	off  []int64
	ids  []int32
	dist []float64
	cum  []float64

	// edges holds every within-MaxEps pair once (a < b), sorted by
	// (d, a, b): the union-find replay log.
	edges []edge
}

// FromShared builds the merge structure from an already-built shared index
// — the pipeline's single-build discipline: the same index serves
// estimation, grouping, and this precompute. A build is the extension of
// the empty dendrogram over every item of shared: one parallel candidate +
// refine pass at radius maxEps that scores each unordered pair once, one
// sort per neighbor list, one edge sort (Extend). The refinement scores at
// bound maxEps: only pairs within maxEps are stored, and those get their
// exact distances, so the kernel may stop on the others
// (segclust.Cursor.DistBlockWithin).
func FromShared(ctx context.Context, shared *segclust.SharedIndex, maxEps float64, workers int) (*Dendrogram, error) {
	if err := segclust.CheckPositive("MaxEps", maxEps); err != nil {
		return nil, err
	}
	return (&Dendrogram{maxEps: maxEps, off: make([]int64, 1)}).Extend(ctx, shared, workers)
}

// edgesFrom derives the part of the replay log that items [lo, n) add from
// the filled flat lists: every pair a < b within MaxEps whose larger end is
// b ≥ lo, read from b's list, sorted by (d, a, b). Symmetry (Lemma 2:
// dist(a,b) == dist(b,a), bit-exact in this implementation) puts every pair
// in both endpoint lists at the same distance, so the log is a function of
// the lists alone: a build and a snapshot restore derive all of it
// (edgesFrom(0)) and an extension the appended items' share.
func (d *Dendrogram) edgesFrom(lo int) []edge {
	// Counted first, so the log is allocated once at its exact size: a
	// guess grows an extension's share and overshoots a build's.
	n, count := len(d.items), 0
	for b := lo; b < n; b++ {
		for _, a := range d.ids[d.off[b]:d.off[b+1]] {
			if int(a) < b {
				count++
			}
		}
	}
	edges := make([]edge, 0, count)
	for b := lo; b < n; b++ {
		for k := d.off[b]; k < d.off[b+1]; k++ {
			if a := d.ids[k]; int(a) < b {
				edges = append(edges, edge{a: a, b: int32(b), d: d.dist[k]})
			}
		}
	}
	sortEdges(edges)
	return edges
}

// Extend returns the merge structure over shared's items, of which d's
// items must be the first d.Len() — the index an appender has grown by
// Δ items, or any index when d is the empty dendrogram FromShared extends.
// It never writes d (earlier epochs keep serving it); the result shares
// nothing mutable with it. Only the appended items [d.Len(), n) run range
// queries, at d's MaxEps and scored bounded, each unordered pair once;
// every new pair is merged into both endpoints' sorted lists (by Lemma-2
// symmetry whichever end scored a pair gives it the bits a rebuild would),
// the running weight sums are recomputed only for the lists that gained
// entries, and the appended items' edges (edgesFrom) merge into the replay
// log. The result is bit-identical to FromShared over the same items —
// neighbor lists, weight sums and replay log — except DistCalls, which adds
// the candidate pairs the Δ refined to d's. An index holding no new items
// returns d itself.
func (d *Dendrogram) Extend(ctx context.Context, shared *segclust.SharedIndex, workers int) (*Dendrogram, error) {
	items := shared.Items()
	n0, n := len(d.items), len(items)
	if n < n0 || !slices.Equal(items[:n0], d.items) {
		return nil, fmt.Errorf("dendro: Extend needs an index whose first %d items are the dendrogram's", n0)
	}
	if n == n0 {
		return d, nil
	}
	lists, calls, err := neighborLists(ctx, shared, n0, d.maxEps, workers)
	if err != nil {
		return nil, err
	}

	// Bucket the new pairs by their old endpoint (a counting sort on the
	// old id).
	at := make([]int, n0+1)
	total := len(d.ids)
	for _, l := range lists {
		total += len(l)
		for _, e := range l {
			if int(e.id) < n0 {
				at[e.id+1]++
			}
		}
	}
	for i := 0; i < n0; i++ {
		at[i+1] += at[i]
	}
	total += at[n0]
	added := make([]nb, at[n0])
	next := slices.Clone(at[:n0])
	for k, l := range lists {
		for _, e := range l {
			if int(e.id) < n0 {
				added[next[e.id]] = nb{id: int32(n0 + k), dist: e.dist}
				next[e.id]++
			}
		}
	}

	x := &Dendrogram{items: items, maxEps: d.maxEps, calls: d.calls + calls, off: make([]int64, n+1)}
	x.alloc(total)
	for i := 0; i < n0; i++ {
		lo, hi := d.off[i], d.off[i+1]
		o := x.off[i]
		if at[i] == at[i+1] {
			// Untouched: the list and its running sums carry over verbatim.
			copy(x.ids[o:], d.ids[lo:hi])
			copy(x.dist[o:], d.dist[lo:hi])
			copy(x.cum[o:], d.cum[lo:hi])
			x.off[i+1] = o + hi - lo
			continue
		}
		bucket := added[at[i]:at[i+1]]
		sortNeighbors(bucket)
		// Every new id exceeds every old one, so on a distance tie the
		// old entry goes first — the (dist, id) order.
		var sum float64
		for k := lo; k < hi || len(bucket) > 0; o++ {
			if k < hi && (len(bucket) == 0 || d.dist[k] <= bucket[0].dist) {
				x.ids[o], x.dist[o] = d.ids[k], d.dist[k]
				k++
			} else {
				x.ids[o], x.dist[o] = bucket[0].id, bucket[0].dist
				bucket = bucket[1:]
			}
			sum += items[x.ids[o]].Weight
			x.cum[o] = sum
		}
		x.off[i+1] = o
	}
	for k, l := range lists {
		x.off[n0+k+1] = x.putList(x.off[n0+k], l)
	}
	x.edges = mergeEdges(d.edges, x.edgesFrom(n0))
	return x, nil
}

// nb is one stored neighbor: an item id and its exact distance.
type nb struct {
	id   int32
	dist float64
}

// neighborLists is the one query-and-sort pass behind Extend, and so behind
// every build: for every item i in [lo, n) of shared, every j with
// dist(i, j) ≤ maxEps, sorted by (dist, id), at lists[i-lo], each list sized
// to the pairs it keeps. It also returns the candidate pairs refined.
//
// Each unordered pair is scored once, from the end that owns it: the index
// returns item i only its candidates outside [lo, i)
// (segclust.Cursor.OwnedCandidatesOf), and a serial reflection pass hands
// every owned pair to its other queried end. By Lemma 2 symmetry (bit-exact
// in the kernel) that entry carries the distance the other end would have
// scored. The count is Σ|candidates(i)|, derived from the owned lists.
func neighborLists(ctx context.Context, shared *segclust.SharedIndex, lo int, maxEps float64, workers int) ([][]nb, int, error) {
	own := make([][]nb, shared.Len()-lo)
	w := par.Workers(workers, len(own))
	// Per-worker geometry-aware cursors: on a planar index these are thin
	// wrappers over the spindex query (same candidates, same kernel blocks,
	// bit-identical lists); on a spatiotemporal index they fold the wT·gap
	// term into every scored distance, so the merge structure — neighbor
	// lists, core distances, and the replay log — is built under the model's
	// actual distance. The candidate pass stays sound because the temporal
	// term only grows distances (no false negatives at radius maxEps/c).
	queries := make([]*segclust.Cursor, w)
	cand := make([][]int, w)
	dists := make([][]float64, w)
	calls := make([]int, w)
	for k := range queries {
		queries[k] = shared.Cursor()
	}
	err := par.ForEachCtx(ctx, workers, len(own), func(wk, k int) {
		i := lo + k
		sq := queries[wk]
		c, nc := sq.OwnedCandidatesOf(i, lo, maxEps, cand[wk][:0])
		cand[wk] = c
		calls[wk] += nc
		dists[wk] = sq.DistBlockWithin(i, c, maxEps, dists[wk])
		kept := 0
		for _, dv := range dists[wk] {
			if dv <= maxEps {
				kept++
			}
		}
		list := make([]nb, 0, kept)
		for x, j := range c {
			if dv := dists[wk][x]; dv <= maxEps {
				list = append(list, nb{id: int32(j), dist: dv})
			}
		}
		own[k] = list
	})
	total := 0
	for _, c := range calls {
		total += c
	}
	if err != nil {
		return nil, total, err
	}

	// Reflect: list k holds its owned pairs plus one entry per later owner
	// that scored it, all carved from one flat array.
	size := make([]int, len(own))
	for k, l := range own {
		size[k] += len(l)
		for _, e := range l {
			if int(e.id) > lo+k {
				size[int(e.id)-lo]++
			}
		}
	}
	sum := 0
	for _, n := range size {
		sum += n
	}
	flat := make([]nb, sum)
	lists := make([][]nb, len(own))
	for k, l := range own {
		lists[k] = append(flat[:0:size[k]], l...)
		flat = flat[size[k]:]
	}
	for k, l := range own {
		i := int32(lo + k)
		for _, e := range l {
			if e.id > i {
				lists[int(e.id)-lo] = append(lists[int(e.id)-lo], nb{id: i, dist: e.dist})
			}
		}
	}
	err = par.ForEachCtx(ctx, workers, len(lists), func(_, k int) { sortNeighbors(lists[k]) })
	return lists, total, err
}

// sortNeighbors orders a list by (dist, id); ids are unique per list, so
// this is a total order and the layout is deterministic across worker
// counts and sorting algorithms.
func sortNeighbors(list []nb) {
	slices.SortFunc(list, func(x, y nb) int {
		if c := cmp.Compare(x.dist, y.dist); c != 0 {
			return c
		}
		return cmp.Compare(x.id, y.id)
	})
}

// alloc sizes the flat neighbor store for total entries.
func (d *Dendrogram) alloc(total int) {
	d.ids = make([]int32, total)
	d.dist = make([]float64, total)
	d.cum = make([]float64, total)
}

// putList writes one item's sorted list at offset o of the flat store,
// with its running weight sums, and returns the offset past it.
func (d *Dendrogram) putList(o int64, list []nb) int64 {
	var sum float64
	for _, e := range list {
		d.ids[o], d.dist[o] = e.id, e.dist
		sum += d.items[e.id].Weight
		d.cum[o] = sum
		o++
	}
	return o
}

// edgeCmp is the replay log's (d, a, b) order — a total order, since a
// pair occurs exactly once.
func edgeCmp(x, y edge) int {
	if c := cmp.Compare(x.d, y.d); c != 0 {
		return c
	}
	if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	}
	return cmp.Compare(x.b, y.b)
}

// sortEdges orders the replay log by (d, a, b).
func sortEdges(edges []edge) { slices.SortFunc(edges, edgeCmp) }

// mergeEdges merges two (d, a, b)-sorted edge logs into a new one; with a
// empty (a build) it returns b itself, uncopied.
func mergeEdges(a, b []edge) []edge {
	if len(a) == 0 {
		return b
	}
	out := make([]edge, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if edgeCmp(a[0], b[0]) < 0 {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// Len returns the number of items the dendrogram covers.
func (d *Dendrogram) Len() int { return len(d.items) }

// MaxEps returns the largest ε the structure can answer.
func (d *Dendrogram) MaxEps() float64 { return d.maxEps }

// DistCalls returns the candidate pairs refined building the structure,
// Σ|candidates(i)| at MaxEps with every extension included, each unordered
// pair scored once. The index hands each item only the candidates it owns,
// and the sum is derived from those, exactly, since the candidate relation
// is symmetric (spindex.SearchQuery.OwnedCandidatesOf). Cuts and weight
// queries never add to it.
func (d *Dendrogram) DistCalls() int { return d.calls }

// Edges returns the size of the union-find replay log.
func (d *Dendrogram) Edges() int { return len(d.edges) }

// Items returns the covered item set (the dendrogram's own backing store —
// do not mutate).
func (d *Dendrogram) Items() []segclust.Item { return d.items }

// countAt returns how many of item i's stored neighbors are within eps.
// eps must be non-negative (callers check); eps > maxEps silently saturates
// at the stored list, which is why exported entry points range-check first.
func (d *Dendrogram) countAt(i int, eps float64) int {
	seg := d.dist[d.off[i]:d.off[i+1]]
	return sort.Search(len(seg), func(k int) bool { return seg[k] > eps })
}

// Within returns the ids of item i's neighbors within eps ≤ MaxEps, item i
// itself included when it is: the d ≤ eps prefix of its list, in (distance,
// id) order. The list holds every pair within MaxEps at the exact distance
// the bounded kernel computes, so the prefix is exactly the set a fresh
// neighborhood pass at eps keeps. The slice is the structure's own backing
// store — do not mutate it. Within makes *Dendrogram a
// segclust.NeighborLists: a grouping at eps reads its neighborhoods here.
func (d *Dendrogram) Within(i int, eps float64) []int32 {
	lo := d.off[i]
	return d.ids[lo : lo+int64(d.countAt(i, eps))]
}

// weightAt returns the weighted ε-cardinality of item i's neighborhood.
func (d *Dendrogram) weightAt(i int, eps float64) float64 {
	if !(eps >= 0) { // NaN or negative: nothing is within reach
		return 0
	}
	c := d.countAt(i, eps)
	if c == 0 {
		return 0
	}
	return d.cum[d.off[i]+int64(c)-1]
}

// rangeErr is the uniform out-of-range error for ε queries.
func (d *Dendrogram) rangeErr(field string, eps float64) error {
	return &segclust.ConfigError{Field: field, Value: eps,
		Reason: fmt.Sprintf("exceeds the dendrogram's maximum ε %g — rebuild with a larger MaxEps", d.maxEps)}
}

// NeighborhoodWeights returns, for every item, the weighted cardinality of
// its ε-neighborhood — the Section 4.4 heuristic's raw material — computed
// entirely from the precomputed structure. dst is reused when large enough.
// eps may be any value ≤ MaxEps (non-positive or NaN yields all zeros,
// matching what a fresh neighborhood pass at that ε would find).
func (d *Dendrogram) NeighborhoodWeights(eps float64, dst []float64) ([]float64, error) {
	if eps > d.maxEps {
		return nil, d.rangeErr("Eps", eps)
	}
	if cap(dst) < len(d.items) {
		dst = make([]float64, len(d.items))
	}
	dst = dst[:len(d.items)]
	for i := range d.items {
		dst[i] = d.weightAt(i, eps)
	}
	return dst, nil
}

// coreAt flags the items whose weighted ε-neighborhood reaches minLns, with
// each weight summed as a grouping sums it: left to right in ascending id
// order. For unit weights that is the count, which the running sum at the
// end of the ε-prefix holds exactly; any other weight sums a sorted copy of
// the prefix, since a float sum in (distance, id) order can round to other
// bits.
func (d *Dendrogram) coreAt(eps, minLns float64) []bool {
	core := make([]bool, len(d.items))
	unit := !slices.ContainsFunc(d.items, func(it segclust.Item) bool { return it.Weight != 1 })
	var hood []int32
	for i := range core {
		if unit {
			core[i] = d.weightAt(i, eps) >= minLns
			continue
		}
		hood = append(hood[:0], d.Within(i, eps)...)
		slices.Sort(hood)
		var w float64
		for _, j := range hood {
			w += d.items[j].Weight
		}
		core[i] = w >= minLns
	}
	return core
}

// CutAt reconstructs the exact segment clustering at ε = eps: the same
// labels, cluster numbering, Removed count, and canonical Result shape as
// a fresh segclust.Run with Config{Eps: eps, MinLns: minLns, MinTrajs:
// minTrajs} over the same items — with zero distance evaluations.
// minTrajs ≤ 0 defaults to ⌈minLns⌉ (segclust.TrajectoryThreshold), as
// in segclust.
//
// The replication argument, pass by pass:
//
//  1. Core predicate: weight ≥ minLns with weight the within-ε neighbor
//     weight sum in id order, as the grouping sums it (coreAt) — for unit
//     weights a binary search over the sorted list and a prefix-sum read.
//  2. Merges: the fresh pass unions every core-core pair within ε; here
//     that is exactly the d ≤ eps prefix of the replay log filtered to
//     both-core endpoints. Union order is irrelevant to the outcome — the
//     min-root union-find makes every component's root its minimum member
//     regardless of interleaving.
//  3. Numbering and borders: segclust.Label, over the within-ε prefix of
//     each sorted neighbor list — the same two passes a fresh grouping
//     runs.
//  4. Definition 10: segclust.ResultFromLabels applies the trajectory
//     filter and canonicalises, as it does for every grouping.
func (d *Dendrogram) CutAt(eps, minLns float64, minTrajs int) (*segclust.Result, error) {
	if err := segclust.CheckPositive("Eps", eps); err != nil {
		return nil, err
	}
	if err := segclust.CheckPositive("MinLns", minLns); err != nil {
		return nil, err
	}
	if eps > d.maxEps {
		return nil, d.rangeErr("Eps", eps)
	}
	minTrajs = segclust.TrajectoryThreshold(minLns, minTrajs)
	n := len(d.items)
	core := d.coreAt(eps, minLns)
	uf := segclust.NewUnionFind(n)
	ne := sort.Search(len(d.edges), func(k int) bool { return d.edges[k].d > eps })
	for _, e := range d.edges[:ne] {
		if core[e.a] && core[e.b] {
			uf.Union(e.a, e.b)
		}
	}
	labels, err := segclust.Label(context.TODO(), 1, core, uf, func(i int) []int32 { return d.Within(i, eps) })
	if err != nil {
		return nil, err
	}
	return segclust.ResultFromLabels(d.items, labels, minTrajs, 0), nil
}

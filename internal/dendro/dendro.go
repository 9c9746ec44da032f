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
//     sorted by (distance, a, b) — the union-find replay log. A cut at ε
//     replays the prefix of edges with d ≤ ε whose endpoints are both core
//     at ε through the deterministic min-root union-find
//     (segclust.UnionFind), which ends in exactly the forest the fresh
//     grouping's link step builds;
//   - the item set itself (geometry + trajectory ids + weights), so cuts,
//     representatives, and SSEs remain computable from a snapshot-restored
//     dendrogram with no original dataset at hand.
//
// CutAt replicates segclust's grouping step for step: it computes the core
// predicate and replays the merges itself, then hands the numbering and
// border passes to segclust.Label — the very passes every batch run and
// append uses — and applies the Definition-10 trajectory filter, so its
// Result is bit-identical to a fresh segclust.Run at the same parameters;
// the equivalence suite pins this across backends and worker counts.
//
// One caveat bounds the "bit-identical" claim: the fresh pass accumulates
// each neighborhood's weight in backend candidate order, while the
// dendrogram accumulates in (distance, id) order. For order-independent
// sums — unit or integer weights, which is every trajectory source in this
// repo (core.PartitionAllCtx defaults Weight to 1) — the sums are exactly
// equal. Exotic fractional weights could differ in the last ulp at the
// core threshold; such datasets should validate against segclust directly.
package dendro

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/lsdist"
	"repro/internal/par"
	"repro/internal/segclust"
	"repro/internal/spindex"
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
	calls  int // exact-distance evaluations spent building

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

// Build partitions nothing and indexes once: it constructs a fresh shared
// index over items with the given distance options and backend, then
// precomputes the merge structure for every ε ≤ maxEps.
func Build(ctx context.Context, items []segclust.Item, opt lsdist.Options, backend spindex.Backend, maxEps float64, workers int) (*Dendrogram, error) {
	return FromShared(ctx, segclust.NewSharedIndexFor(items, opt, backend), maxEps, workers)
}

// FromShared builds the merge structure from an already-built shared index
// — the pipeline's single-build discipline: the same index serves
// estimation, grouping, and this precompute. One parallel candidate +
// refine pass at radius maxEps, one sort per neighbor list, one edge sort.
// The refinement scores at bound maxEps: only pairs within maxEps are
// stored, and those get their exact distances, so the kernel may stop on
// the others (segclust.Cursor.DistBlockWithin).
func FromShared(ctx context.Context, shared *segclust.SharedIndex, maxEps float64, workers int) (*Dendrogram, error) {
	if err := segclust.CheckPositive("MaxEps", maxEps); err != nil {
		return nil, err
	}
	items := shared.Items()
	n := len(items)
	d := &Dendrogram{items: items, maxEps: maxEps, off: make([]int64, n+1)}
	if n == 0 {
		return d, nil
	}

	type nb struct {
		id   int32
		dist float64
	}
	lists := make([][]nb, n)
	w := par.Workers(workers, n)
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
	err := par.ForEachCtx(ctx, workers, n, func(wk, i int) {
		sq := queries[wk]
		cand[wk] = sq.CandidatesOf(i, maxEps, cand[wk][:0])
		c := cand[wk]
		dists[wk] = sq.DistBlockWithin(i, c, maxEps, dists[wk])
		calls[wk] += len(c)
		list := make([]nb, 0, len(c))
		for k, j := range c {
			if dv := dists[wk][k]; dv <= maxEps {
				list = append(list, nb{id: int32(j), dist: dv})
			}
		}
		// (dist, id) order; ids are unique per list, so this is a total
		// order and the layout is deterministic across worker counts.
		sort.Slice(list, func(x, y int) bool {
			if list[x].dist != list[y].dist {
				return list[x].dist < list[y].dist
			}
			return list[x].id < list[y].id
		})
		lists[i] = list
	})
	for _, c := range calls {
		d.calls += c
	}
	if err != nil {
		return nil, err
	}

	total, ecount := 0, 0
	for i, l := range lists {
		total += len(l)
		for _, e := range l {
			if int(e.id) > i {
				ecount++
			}
		}
	}
	d.ids = make([]int32, total)
	d.dist = make([]float64, total)
	d.cum = make([]float64, total)
	d.edges = make([]edge, 0, ecount)
	for i, l := range lists {
		base := d.off[i]
		d.off[i+1] = base + int64(len(l))
		var sum float64
		for k, e := range l {
			d.ids[base+int64(k)] = e.id
			d.dist[base+int64(k)] = e.dist
			sum += items[e.id].Weight
			d.cum[base+int64(k)] = sum
			// Symmetry (Lemma 2: dist(a,b) == dist(b,a), bit-exact in this
			// implementation) puts every pair in both endpoint lists; keep
			// it once, from the smaller endpoint.
			if int(e.id) > i {
				d.edges = append(d.edges, edge{a: int32(i), b: e.id, d: e.dist})
			}
		}
	}
	sortEdges(d.edges)
	return d, nil
}

// sortEdges orders the replay log by (d, a, b) — a total order, since a
// pair occurs exactly once.
func sortEdges(edges []edge) {
	sort.Slice(edges, func(x, y int) bool {
		if edges[x].d != edges[y].d {
			return edges[x].d < edges[y].d
		}
		if edges[x].a != edges[y].a {
			return edges[x].a < edges[y].a
		}
		return edges[x].b < edges[y].b
	})
}

// Len returns the number of items the dendrogram covers.
func (d *Dendrogram) Len() int { return len(d.items) }

// MaxEps returns the largest ε the structure can answer.
func (d *Dendrogram) MaxEps() float64 { return d.maxEps }

// DistCalls returns the exact-distance evaluations spent building the
// structure. Cuts and weight queries never add to it.
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

// CoreDist returns the smallest ε at which item i is core (weighted
// ε-cardinality ≥ minLns), or +Inf if it never is within MaxEps. This is
// the per-segment core distance of the merge structure.
func (d *Dendrogram) CoreDist(i int, minLns float64) float64 {
	lo, hi := d.off[i], d.off[i+1]
	cum := d.cum[lo:hi]
	k := sort.Search(len(cum), func(k int) bool { return cum[k] >= minLns })
	if k == len(cum) {
		return math.Inf(1)
	}
	return d.dist[lo+int64(k)]
}

// CutAt reconstructs the exact segment clustering at ε = eps: the same
// labels, cluster numbering, Removed count, and canonical Result shape as
// a fresh segclust.Run with Config{Eps: eps, MinLns: minLns, MinTrajs:
// minTrajs} over the same items — with zero distance evaluations.
// minTrajs ≤ 0 defaults to int(minLns), mirroring segclust.
//
// The replication argument, pass by pass:
//
//  1. Core predicate: weight ≥ minLns with weight the within-ε neighbor
//     weight sum — binary search over the sorted list, prefix-sum read.
//  2. Merges: the fresh pass unions every core-core pair within ε; here
//     that is exactly the d ≤ eps prefix of the replay log filtered to
//     both-core endpoints. Union order is irrelevant to the outcome — the
//     min-root union-find makes every component's root its minimum member
//     regardless of interleaving.
//  3. Numbering and borders: segclust.Label, over the within-ε prefix of
//     each sorted neighbor list — the same two passes a fresh grouping
//     runs.
//  4. Definition 10: segclust.ResultFromLabels applies the trajectory
//     filter and canonicalises, the same bridge the OPTICS grouper uses.
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
	if minTrajs <= 0 {
		minTrajs = int(minLns)
	}
	n := len(d.items)
	core := make([]bool, n)
	for i := 0; i < n; i++ {
		core[i] = d.weightAt(i, eps) >= minLns
	}
	uf := segclust.NewUnionFind(n)
	ne := sort.Search(len(d.edges), func(k int) bool { return d.edges[k].d > eps })
	for _, e := range d.edges[:ne] {
		if core[e.a] && core[e.b] {
			uf.Union(e.a, e.b)
		}
	}
	labels, err := segclust.Label(context.TODO(), 1, core, uf, func(i int) []int32 {
		lo := d.off[i]
		return d.ids[lo : lo+int64(d.countAt(i, eps))]
	})
	if err != nil {
		return nil, err
	}
	return segclust.ResultFromLabels(d.items, labels, minTrajs, 0), nil
}

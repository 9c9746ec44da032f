// Package segclust implements TRACLUS line-segment clustering (Section 4,
// Figure 12): a density-based grouping of trajectory partitions under the
// TRACLUS distance, with DBSCAN's semantics but two departures the paper
// calls out — the objects are line segments, and a density-connected set
// only becomes a cluster if enough *distinct trajectories* participate
// (Definition 10).
//
// ε-neighborhoods are computed through the unified index subsystem of
// internal/spindex — brute force, uniform grid, or R-tree, all using the
// sound Euclidean prefilter of internal/lsdist — and all backends produce
// identical clusterings. A grouping handed a
// neighbor structure that already holds every pair within some MaxEps ≥ ε
// (NeighborLists, as an estimation dendrogram does) reads its
// neighborhoods from it instead of scoring them again. Every run computes
// every neighborhood once, across Config.Workers goroutines with per-worker
// views of one immutable SharedIndex, and then labels the ε-graph in two
// steps: link unions the core–core edges (a concurrent min-root
// union-find), and label numbers the components and hands each border
// segment to its first cluster (see label for why that is Figure 12's
// answer; the TRACLUS distance is symmetric, Lemma 2). The ε-graph only
// grows under appends, so a batch run is the append of every item to an
// empty Incremental: batch runs and appends are one body, and dendrogram
// cuts (internal/dendro, through Label) share its two labelling steps and
// its one tail, ResultFromLabels, which applies Definition 10 to label's
// dense ids and builds the canonical Result; the paper's expansion itself
// is the test oracle every path is diffed against.
package segclust

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/geometry"
	"repro/internal/lsdist"
	"repro/internal/par"
	"repro/internal/spindex"
)

// Item is one clusterable line segment: a trajectory partition together
// with the trajectory it came from and that trajectory's weight (weights
// implement the weighted-trajectory extension of Section 4.2: the
// cardinality of an ε-neighborhood becomes the sum of member weights
// instead of the member count). Span is the time interval the partition
// covers when its trajectory carries times (zero otherwise); an index with
// a temporal weight adds wT·gap between spans to every distance.
type Item struct {
	Seg    geom.Segment
	TrajID int
	Weight float64
	Span   geometry.Interval
}

// ItemsFromSegments wraps raw segments as unit-weight items of one
// synthetic trajectory each (useful in tests and for clustering arbitrary
// segment sets).
func ItemsFromSegments(segs []geom.Segment) []Item {
	items := make([]Item, len(segs))
	for i, s := range segs {
		items[i] = Item{Seg: s, TrajID: i, Weight: 1}
	}
	return items
}

// Config parameterises the clustering.
type Config struct {
	// Eps is the ε-neighborhood radius in distance units.
	Eps float64
	// MinLns is the core threshold: a segment is core when the (weighted)
	// cardinality of its ε-neighborhood is at least MinLns.
	MinLns float64
	// MinTrajs is the trajectory-cardinality threshold of Figure 12 step 3
	// (|PTR(C)| ≥ MinTrajs). Zero uses MinLns, as in the paper (see
	// TrajectoryThreshold); the paper notes "a threshold other than MinLns
	// can be used".
	MinTrajs int
	// Distance options (weights, directedness).
	Options lsdist.Options
	// Backend is the spindex backend behind every ε-neighborhood query:
	// grid (the zero value), R-tree or brute scan. The public Config.Index
	// sets it.
	Backend spindex.Backend
	// Workers bounds parallelism (≤ 0 = all CPUs): every ε-neighborhood is
	// computed concurrently through per-worker views of a shared index, and
	// the grouping runs as connected components of the core-segment ε-graph
	// (concurrent union-find plus a border pass). Workers only sets the
	// degree of parallelism: the result — cluster membership, noise, and
	// even DistCalls — is bit-identical for every worker count.
	//
	// The cached neighborhoods cost 4 bytes per neighbor entry at every
	// worker count, O(Σ|Nε|) memory in all (the classic cached-DBSCAN
	// trade), which approaches O(n²) when ε covers a large fraction of the
	// data extent. While the pass runs it also holds each unordered pair
	// once, by the end that scored it: a transient store of about half that
	// size.
	Workers int
}

// ConfigError is the typed validation error returned by Config.Validate
// (and re-exported by the root traclus package). Serving layers match it
// with errors.As to map bad parameters to client errors (HTTP 400) instead
// of internal failures.
type ConfigError struct {
	// Field is the offending configuration field, e.g. "Eps".
	Field string
	// Value is the rejected value.
	Value any
	// Reason says what the field must satisfy.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("invalid config: %s %s, got %v", e.Field, e.Reason, e.Value)
}

// CheckPositive returns a ConfigError unless v is finite and > 0. NaN fails
// explicitly: NaN compares false against every threshold, so an untyped
// `v <= 0` check would silently accept it.
func CheckPositive(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return &ConfigError{Field: field, Value: v, Reason: "must be positive and finite"}
	}
	return nil
}

// CheckNonNegative returns a ConfigError unless v is finite and ≥ 0.
func CheckNonNegative(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return &ConfigError{Field: field, Value: v, Reason: "must be non-negative and finite"}
	}
	return nil
}

// Validate reports the first invalid field as a *ConfigError.
func (c Config) Validate() error {
	if err := CheckPositive("Eps", c.Eps); err != nil {
		return err
	}
	if err := CheckPositive("MinLns", c.MinLns); err != nil {
		return err
	}
	if c.MinTrajs < 0 {
		return &ConfigError{Field: "MinTrajs", Value: c.MinTrajs, Reason: "must be non-negative"}
	}
	if !c.Options.Weights.Valid() {
		return &ConfigError{Field: "Weights", Value: c.Options.Weights,
			Reason: "must be finite and non-negative with at least one positive component"}
	}
	return nil
}

// Noise is the cluster id assigned to noise segments in Result.ClusterOf.
const Noise = -1

// Cluster is one discovered cluster of segment indices.
type Cluster struct {
	// Members indexes into the input items, in discovery order.
	Members []int
	// Trajectories is the sorted set of participating trajectory ids,
	// PTR(C) of Definition 10.
	Trajectories []int
}

// Result is the output of Cluster.
type Result struct {
	// ClusterOf maps each input item to its cluster index or Noise.
	ClusterOf []int
	// Clusters in a deterministic order (by first member index).
	Clusters []Cluster
	// Removed counts density-connected sets discarded by the
	// trajectory-cardinality check.
	Removed int
	// DistCalls counts the candidate pairs refined, Σ|candidates(i)| (the
	// index efficiency metric of Lemma 3), each unordered pair scored once:
	// the pass scores a pair from one end and hands the result to the other,
	// so the kernel runs about half as often as this count. The index hands
	// each item only the candidates it owns, and the pass derives the sum
	// from those (spindex.SearchQuery.OwnedCandidatesOf): exact, because the
	// candidate relation is symmetric. A grouping that reads its pairs from
	// precomputed lists (NewIncrementalCtx with NeighborLists, as an auto
	// build does from its dendrogram) scores none of them, but charges its
	// candidates through a count-only query, so the count is the same.
	DistCalls int
}

// NumClusters returns len(r.Clusters).
func (r *Result) NumClusters() int { return len(r.Clusters) }

// NoiseCount returns the number of items labelled noise.
func (r *Result) NoiseCount() int {
	n := 0
	for _, c := range r.ClusterOf {
		if c == Noise {
			n++
		}
	}
	return n
}

// neighborSource is one worker's half of a neighborhood pass: for query
// item i it appends to dst, in any order, the ids within ε among the ones i
// owns in a pass over [lo, n) — j < lo (an item the pass does not query) or
// j ≥ i — and returns them with the pass's charge for i. Every source takes
// its charge from the same owned candidate query at ε, so a pass's charges
// sum to Σ|candidates(i)| (Cursor.OwnedCandidatesOf) whichever source found
// the ids. sc is the worker's pooled scratch.
type neighborSource interface {
	owned(i, lo int, sc *scratchSet, dst []int32) ([]int32, int)
}

// sourceFor makes one worker's neighborSource for a pass at eps over the
// worker's own cursor; nil selects scored.
type sourceFor func(c *Cursor, eps float64) neighborSource

// scored is the index's own source, epsView.
func scored(c *Cursor, eps float64) neighborSource { return epsView{c: c, eps: eps} }

// epsView binds a per-goroutine Cursor to one query ε: the source of every
// grouping that reads no lists. Candidates come from the cursor's
// conservative planar prefilter at ε, and blocks are scored by the cursor
// at bound ε: the batch kernel stops scoring a pair once it is past ε, and
// on a spatiotemporal index the wT·gap term is added after the spatial
// block. The temporal term is non-negative, so dist_st ≥ dist_planar ≥
// c·mindist and the planar candidate radius ε/c stays complete (no false
// negatives; see internal/geometry's pruning-bound invariant); candidate
// sets, and therefore DistCalls, are identical to the planar path, and with
// wT = 0 the added term is exactly +0 and every distance within ε is
// bit-identical to planar.
type epsView struct {
	c   *Cursor
	eps float64
}

func (v epsView) owned(i, lo int, sc *scratchSet, dst []int32) ([]int32, int) {
	return refine(v.c, i, lo, v.eps, sc, dst, func(cand []int, out []float64) []float64 {
		return v.c.DistBlockWithin(i, cand, v.eps, out)
	})
}

// customDistView scores the cursor's candidates with an arbitrary
// caller-supplied distance function: RunWithDistance's path. No columnar
// kernel exists for an unknown Func, so blocks are scored by the scalar
// loop.
type customDistView struct {
	c    *Cursor
	eps  float64
	dist lsdist.Func
}

func (v customDistView) owned(i, lo int, sc *scratchSet, dst []int32) ([]int32, int) {
	a := v.c.items[i].Seg
	return refine(v.c, i, lo, v.eps, sc, dst, func(cand []int, out []float64) []float64 {
		out = slices.Grow(out[:0], len(cand))[:len(cand)]
		for k, j := range cand {
			out[k] = v.dist(a, v.c.items[j].Seg)
		}
		return out
	})
}

// NeighborLists is a neighbor structure precomputed over a SharedIndex's
// items, which a grouping at ε ≤ MaxEps() reads its ε-neighborhoods from
// instead of scoring them. Within(i, eps) returns, in any order, every id
// whose distance to item i under the index's geometry is ≤ eps — item i
// itself when its self-distance is — for any eps ≤ MaxEps(): the set the
// bounded kernel keeps at eps. *dendro.Dendrogram implements it: each of
// its lists holds every pair within MaxEps at the exact distance the
// kernel computes, so the set is the d ≤ eps prefix of the list.
type NeighborLists interface {
	MaxEps() float64
	Within(i int, eps float64) []int32
}

// listView reads item i's within-ε ids from precomputed lists and keeps the
// ones i owns. Its charge comes from a count-only owned candidate query at
// ε, with no kernel: the charges are the ones epsView's pass sums, although
// no pair is scored.
type listView struct {
	c     *Cursor
	eps   float64
	lists NeighborLists
}

// fromLists is the source of a pass that reads its pairs from lists.
func fromLists(lists NeighborLists) sourceFor {
	return func(c *Cursor, eps float64) neighborSource { return listView{c: c, eps: eps, lists: lists} }
}

func (v listView) owned(i, lo int, sc *scratchSet, dst []int32) ([]int32, int) {
	var calls int
	sc.cand, calls = v.c.OwnedCandidatesOf(i, lo, v.eps, sc.cand[:0])
	for _, j := range v.lists.Within(i, v.eps) {
		if int(j) < lo || int(j) >= i {
			dst = append(dst, j)
		}
	}
	return dst, calls
}

func segments(items []Item) []geom.Segment {
	segs := make([]geom.Segment, len(items))
	for i, it := range items {
		segs[i] = it.Seg
	}
	return segs
}

// refineBlock chunks the block refinement: candidate lists are scored in
// sub-blocks of at most this many pairs, so the distance scratch is one
// fixed 8 KiB buffer per worker for the whole run (and stays L1-resident)
// no matter how large ε-neighborhoods grow. Chunking changes nothing about
// the scored values or their order — it only bounds the scratch.
const refineBlock = 1024

// refine is the scored sources' owned: the candidates item i owns at ε,
// from the cursor's prefilter, refined block-at-a-time — one candidate
// query, then per refineBlock-sized chunk one block call scoring the chunk
// and a branch-only filter pass over flat arrays — with the ids within ε
// appended to dst. block scores a chunk against item i: exactly for every
// pair within ε, and a value that is not ≤ ε for the others. The pass
// hands each within-ε answer to the pair's other end by symmetry (Lemma 2;
// the kernel is bit-symmetric), so every unordered pair is scored once. The
// self pair is owned like any other: i keeps itself only when it scores
// ≤ ε, as its distance is not always exactly 0.
func refine(c *Cursor, i, lo int, eps float64, sc *scratchSet, dst []int32, block func(cand []int, out []float64) []float64) ([]int32, int) {
	cand, calls := c.OwnedCandidatesOf(i, lo, eps, sc.cand[:0])
	sc.cand = cand
	for off := 0; off < len(cand); off += refineBlock {
		chunk := cand[off:min(off+refineBlock, len(cand))]
		sc.dists = block(chunk, sc.dists)
		for k, j := range chunk {
			if sc.dists[k] <= eps {
				dst = append(dst, int32(j))
			}
		}
	}
	return dst, calls
}

// hoodSet holds the ε-neighborhoods of a run. Item i's ids are a
// capacity-capped window, in ascending id order, into the one flat int32
// array the pass that queried i filled: the store costs 4 bytes per
// neighbor entry plus one slice header per item. Appending to a window (an
// append's reflection into an old item) copies it out of the array instead
// of overwriting the next item's ids. While a pass runs it also holds its
// owned pairs (neighborSource.owned) in per-worker blocks, a transient store
// of about half the size that the reflection pass drops.
type hoodSet struct {
	ids [][]int32 // item i's neighborhood, i included, ascending
	w   []float64 // weighted ε-cardinality per item, summed in id order
}

func (h *hoodSet) hood(i int) []int32 { return h.ids[i] }

// Run executes the Figure-12 algorithm. cfg.Workers sets how many
// goroutines compute the ε-neighborhoods and label the ε-graph; the
// clustering is identical for every value.
func Run(items []Item, cfg Config) (*Result, error) {
	return run(context.Background(), items, cfg, nil, nil, nil)
}

// RunSharedCtx is Run over a prebuilt SharedIndex, with cooperative
// cancellation and an optional per-item completion hook — the single-build
// data flow: the caller indexes the items once (shared across parameter
// estimation and any number of clustering runs) and the grouping only
// queries it. shared must have been built with NewSharedIndexFor over
// exactly these items and cfg.Options; cfg.Backend is ignored in its
// favour. The result is bit-identical to Run with the equivalent Config —
// the index structure does not depend on ε, and every query derives its own
// candidate radius.
//
// Cancellation is checked once per item on every pass (neighborhoods,
// union-find edge scan, border assignment), so the call returns ctx.Err()
// within roughly one neighborhood's worth of work after ctx is done. onItem,
// if non-nil, is invoked once per item whose ε-range query has been scored
// — from the worker goroutines, so it must be safe for concurrent use when
// cfg.Workers ≠ 1 — so callers can stream grouping progress.
func RunSharedCtx(ctx context.Context, shared *SharedIndex, cfg Config, onItem func()) (*Result, error) {
	return run(ctx, shared.items, cfg, nil, onItem, shared)
}

// RunWithDistance executes the Figure-12 algorithm under an arbitrary
// segment distance. No geometric prefilter can be assumed for an unknown
// function, so neighborhoods are computed by full scan (the paper's
// index-free O(n²) bound) — though still across cfg.Workers goroutines.
// Because the default (zero-value) Workers uses all CPUs, dist must be
// safe for concurrent use — every distance in internal/lsdist is, being a
// pure function; a stateful closure (memoizer, call counter) needs its own
// synchronisation or cfg.Workers = 1. dist is evaluated once per unordered
// pair, self pairs included — n(n+1)/2 calls, while DistCalls reports the
// n² candidate pairs refined — and its answer is used for both ends, so it
// must be symmetric (dist(a,b) == dist(b,a), bit for bit): the neighborhoods
// rely on it, as do DBSCAN's density-connectivity and the ε-graph labeling;
// every distance in this repo is, per the paper's Lemma 2. Used by the
// distance-function ablations.
func RunWithDistance(items []Item, dist lsdist.Func, cfg Config) (*Result, error) {
	if !cfg.Options.Weights.Valid() {
		// The weights are unused on this path (the caller's dist decides
		// everything); normalise them so validation concerns only
		// Eps/MinLns.
		cfg.Options.Weights = lsdist.DefaultWeights()
	}
	cfg.Backend = spindex.Brute() // no prefilter is sound for an unknown distance
	if dist == nil {
		dist = lsdist.New(cfg.Options)
	}
	src := func(c *Cursor, eps float64) neighborSource { return customDistView{c: c, eps: eps, dist: dist} }
	return run(context.Background(), items, cfg, src, nil, nil)
}

// run is the batch entry points' shared core: group, keeping only the
// Result.
func run(ctx context.Context, items []Item, cfg Config, src sourceFor, onItem func(), shared *SharedIndex) (*Result, error) {
	inc, err := group(ctx, items, cfg, src, onItem, shared)
	if err != nil {
		return nil, err
	}
	return inc.res, nil
}

// group is the one grouping path, behind every batch run and every
// Incremental. A batch grouping is the append of every item to the empty
// ε-graph, so group builds an empty Incremental over shared and appends all
// of shared's items to it: append computes every ε-neighborhood once, links
// the core–core edges, labels the ε-graph and keeps that state so later
// appends can extend it. shared is built over items when nil. src is where
// the pass finds the neighborhoods: nil scores the index's candidates with
// its batch kernel, RunWithDistance's source scores them with the caller's
// distance, and NewIncrementalCtx's reads them from precomputed lists.
func group(ctx context.Context, items []Item, cfg Config, src sourceFor, onItem func(), shared *SharedIndex) (*Incremental, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if shared == nil {
		shared = NewSharedIndexFor(items, cfg.Options, cfg.Backend)
	}
	inc := &Incremental{
		shared:   shared,
		cfg:      cfg,
		minTrajs: TrajectoryThreshold(cfg.MinLns, cfg.MinTrajs),
		hs:       &hoodSet{},
		uf:       newUnionFind(0),
	}
	res, err := inc.append(ctx, 0, src, onItem)
	if err != nil {
		return nil, err
	}
	inc.res = res
	return inc, nil
}

// link unions the core–core edges of the ε-graph into uf, scanning the
// neighborhoods of every item when from is nil and of the listed items
// otherwise. Neighborhoods are symmetric (j ∈ Nε(i) ⇔ i ∈ Nε(j), Lemma 2),
// so a scan of every item meets each edge at both ends and unions it once,
// from its lower end; a listed item's other end may be unlisted, so a scan
// from a list unions every edge it meets. The unions run concurrently, and
// the min-root union-find makes the forest independent of their order.
func link(ctx context.Context, workers int, core []bool, uf *unionFind, hood func(i int) []int32, from []int32) error {
	n := len(core)
	if from != nil {
		n = len(from)
	}
	return par.ForEachCtx(ctx, workers, n, func(_, k int) {
		i := int32(k)
		if from != nil {
			i = from[k]
		}
		if !core[i] {
			return
		}
		for _, j := range hood(int(i)) {
			if core[j] && (j > i || from != nil) {
				uf.union(i, j)
			}
		}
	})
}

// label turns a linked ε-graph into Figure 12's cluster ids; it is the one
// numbering pass and the one border pass of every grouping. Figure 12 scans
// the items in order and opens a cluster at each unclassified core item, and
// core items are only ever labelled by their own component's expansion, so
// clusters are numbered in order of their components' minimum core index —
// the root of the min-root union-find, which makes the numbering one
// ascending scan. A border (non-core) item goes to the first cluster whose
// expansion reaches it: by symmetry, the minimum cluster id over the core
// items of its own neighborhood. That minimum is order-free, so the border
// pass runs across workers; it writes only non-core slots and reads only
// core ones. An item with no core neighbor is noise.
func label(ctx context.Context, workers int, core []bool, uf *unionFind, hood func(i int) []int32) ([]int, error) {
	labels := make([]int, len(core))
	clusterID := 0
	for i, c := range core {
		if !c {
			labels[i] = Noise
			continue
		}
		if r := int(uf.find(int32(i))); r == i {
			labels[i] = clusterID
			clusterID++
		} else {
			labels[i] = labels[r]
		}
	}
	err := par.ForEachCtx(ctx, workers, len(core), func(_, i int) {
		if core[i] {
			return
		}
		best := Noise
		for _, j := range hood(i) {
			if core[j] && (best == Noise || labels[j] < best) {
				best = labels[j]
			}
		}
		labels[i] = best
	})
	if err != nil {
		return nil, err
	}
	return labels, nil
}

// Label is label for a caller that keeps its own union-find: internal/dendro
// replays its merge log into uf up to the cut's ε, and Label then numbers
// the components and assigns the borders exactly as a fresh grouping does.
// core flags the core items, and hood(i) lists item i's neighbors at the
// cut's ε.
func Label(ctx context.Context, workers int, core []bool, uf *UnionFind, hood func(i int) []int32) ([]int, error) {
	return label(ctx, workers, core, uf.u, hood)
}

// TrajectoryThreshold is the trajectory-cardinality threshold of Figure 12
// step 3: minTrajs when positive, otherwise ⌈minLns⌉, since the paper
// removes a cluster C when |PTR(C)| < MinLns and a count is below MinLns
// exactly when it is below ⌈MinLns⌉. The cap keeps a huge MinLns from
// overflowing int.
func TrajectoryThreshold(minLns float64, minTrajs int) int {
	if minTrajs > 0 {
		return minTrajs
	}
	return int(min(math.Ceil(minLns), math.MaxInt32))
}

// ResultFromLabels builds a canonical Result from the cluster ids label
// emits: labels[i] is a non-negative cluster id or negative for noise, ids
// may have gaps, and the largest one sizes the member table (label keeps
// every id below the item count). The trajectory-cardinality filter of
// Definition 10 demotes clusters with fewer than minTrajs distinct
// trajectory ids to noise and counts them in Removed (minTrajs ≤ 0 keeps
// every cluster); the survivors are renumbered 0..k-1 in ascending id order
// with Members ascending and Trajectories sorted, the canonical shape of
// every grouping, append and dendrogram cut. distCalls is recorded
// verbatim.
func ResultFromLabels(items []Item, labels []int, minTrajs, distCalls int) *Result {
	k := 0
	for _, l := range labels {
		k = max(k, l+1)
	}
	members := make([][]int, k)
	for i, l := range labels {
		if l >= 0 {
			members[l] = append(members[l], i)
		}
	}
	res := &Result{ClusterOf: make([]int, len(items)), DistCalls: distCalls}
	renum := make([]int, k)
	var trajs []int
	for id, m := range members {
		if len(m) == 0 {
			continue
		}
		trajs = trajs[:0]
		for _, i := range m {
			trajs = append(trajs, items[i].TrajID)
		}
		slices.Sort(trajs)
		trajs = slices.Compact(trajs)
		if len(trajs) < minTrajs {
			renum[id] = Noise
			res.Removed++
			continue
		}
		renum[id] = len(res.Clusters)
		res.Clusters = append(res.Clusters, Cluster{Members: m, Trajectories: slices.Clone(trajs)})
	}
	for i, l := range labels {
		if l >= 0 {
			res.ClusterOf[i] = renum[l]
		} else {
			res.ClusterOf[i] = Noise
		}
	}
	return res
}

// SharedIndex is an immutable neighborhood index over one item set that can
// serve many goroutines, each through its own view (per-view scratch
// buffers), at any query ε — the index structure is ε-free and every view
// derives its candidate radius from its own ε. It is the "build once,
// answer many queries" object the pipeline threads through parameter
// estimation and grouping.
type SharedIndex struct {
	items  []Item
	opt    lsdist.Options
	search *spindex.Searcher
	// wt is the temporal weight wT of the spatiotemporal geometry: when
	// positive, every view and cursor adds wT·gap between the items' spans
	// after the spatial kernel block; 0 is the planar path, untouched.
	wt float64
	// scr recycles per-worker neighborhood scratch across passes. The
	// parameter-estimation sweep runs one pass per candidate ε — a hundred
	// passes against one index is normal — and without recycling every pass
	// re-allocates each worker's candidate, distance, and owned-id buffers
	// just to grow them back to steady-state size. The buffers carry no
	// results between passes (each use fully overwrites the prefix it reads),
	// so recycling cannot affect outputs.
	scr sync.Pool
}

// scratchSet is the recyclable per-worker scratch of a neighborhood pass.
type scratchSet struct {
	cand  []int
	dists []float64
	own   []int32
}

func (s *SharedIndex) getScratch() *scratchSet {
	if sc, ok := s.scr.Get().(*scratchSet); ok {
		return sc
	}
	return &scratchSet{}
}

// NewSharedIndex builds backend's index over the items once, under the
// distance opt plus, when wt > 0, the spatiotemporal term wT·gap between
// the items' spans. The spatial index structure is the planar one either
// way: candidate generation keeps the conservative planar radius, which
// stays complete because the temporal addend is non-negative. The searcher
// layer downgrades to the brute backend itself when the distance weights
// admit no sound Euclidean prefilter.
func NewSharedIndex(items []Item, opt lsdist.Options, wt float64, backend spindex.Backend) *SharedIndex {
	return &SharedIndex{
		items:  items,
		opt:    opt,
		search: spindex.NewSearcher(segments(items), opt, backend),
		wt:     wt,
	}
}

// NewSharedIndexFor is NewSharedIndex under the planar distance (wT = 0).
func NewSharedIndexFor(items []Item, opt lsdist.Options, backend spindex.Backend) *SharedIndex {
	return NewSharedIndex(items, opt, 0, backend)
}

// Len returns the number of indexed items.
func (s *SharedIndex) Len() int { return len(s.items) }

// Items returns the indexed item set. The slice is the index's own backing
// store — callers must not mutate it.
func (s *SharedIndex) Items() []Item { return s.items }

// Options returns the distance options the index was built with.
func (s *SharedIndex) Options() lsdist.Options { return s.opt }

// Cursor is a per-goroutine query handle over the shared index that serves
// the index's full geometry: candidates from the conservative spatial
// prefilter, distances from the batch kernel plus the temporal wT·gap term
// when the index is spatiotemporal. A Cursor owns its scratch and is not
// safe for concurrent use; give each goroutine its own.
type Cursor struct {
	sq    *spindex.SearchQuery
	items []Item
	wt    float64
}

// Cursor returns a new query cursor over the shared index.
func (s *SharedIndex) Cursor() *Cursor {
	return &Cursor{sq: s.search.Query(), items: s.items, wt: s.wt}
}

// CandidatesOf appends to dst the candidate ids whose distance to item i
// may be ≤ eps (false positives allowed, false negatives never — the
// temporal term only grows distances, so the planar radius stays complete).
func (c *Cursor) CandidatesOf(i int, eps float64, dst []int) []int {
	return c.sq.CandidatesOf(i, eps, dst)
}

// OwnedCandidatesOf appends to dst the candidates of item i that lie outside
// the window [lo, i), the ones i owns in a neighborhood pass over [lo, n),
// and returns them with the pass's charge for i; the charges of a pass sum
// to its Σ|CandidatesOf| (spindex.SearchQuery.OwnedCandidatesOf).
func (c *Cursor) OwnedCandidatesOf(i, lo int, eps float64, dst []int) ([]int, int) {
	return c.sq.OwnedCandidatesOf(i, lo, eps, dst)
}

// DistBlock scores item i exactly against every id in ids under the
// index's geometry, index-aligned with ids.
func (c *Cursor) DistBlock(i int, ids []int, out []float64) []float64 {
	return c.DistBlockWithin(i, ids, math.Inf(1), out)
}

// DistBlockWithin is DistBlock against a bound: every pair whose distance
// is ≤ bound gets exactly the value DistBlock gives it, and every other
// pair a value that is not ≤ bound, because the spatial kernel stops
// scoring a pair once it is past bound (spindex.SearchQuery.DistBlock). The
// temporal wT·gap term is added after the spatial block; it is ≥ 0, so a
// pair already past bound stays past it.
func (c *Cursor) DistBlockWithin(i int, ids []int, bound float64, out []float64) []float64 {
	out = c.sq.DistBlock(i, ids, bound, out)
	if c.wt > 0 {
		qi := c.items[i].Span
		for k, j := range ids {
			out[k] += c.wt * qi.Gap(c.items[j].Span)
		}
	}
	return out
}

// A worker's owned-id blocks double from minBlockIDs (1 KiB) up to blockIDs
// (1<<15 int32 ids = 128 KiB): a pass over a few items — an append's Δ
// queries — allocates about what it scores, and a full pass fills
// O(log blockIDs + Σ|owned| / blockIDs) blocks per worker, whose unused
// tails are negligible. The blocks are dropped when the pass returns.
const (
	minBlockIDs = 1 << 8
	blockIDs    = 1 << 15
)

// neighborhoods computes every ε-neighborhood into a new hoodSet (see
// extend). The int count is the candidate pairs refined.
func (s *SharedIndex) neighborhoods(ctx context.Context, eps float64, workers int, src sourceFor, onItem func()) (*hoodSet, int, error) {
	hs := &hoodSet{}
	calls, err := hs.extend(ctx, s, eps, workers, src, onItem)
	if err != nil {
		return nil, calls, err
	}
	return hs, calls, nil
}

// extend is the one neighborhood pass: it adds to h the ε-neighborhoods of
// the index's items it does not cover yet, [lo, n) with lo = len(h.w), and
// returns the candidate pairs refined, which is independent of the worker
// count. Grouping, appends and the Section 4.4 parameter heuristic all ride
// it.
//
// The parallel half queries every item i in [lo, n) across
// par.Workers(workers, n-lo) goroutines, each with its own source over its
// own cursor and its own pooled scratch, and copies the ids item i owns
// (neighborSource.owned), ascending, into a block of the worker's own — a
// new, larger block when the current one cannot take them whole. src makes
// each worker's source (see group; nil scores with the index's batch
// kernel). onItem, if non-nil, ticks once per queried item (from the worker
// goroutines). Once ctx is done the remaining items are dropped and
// ctx.Err() is returned alongside the count so far; h is then garbage. The
// serial half, reflect, hands every owned pair to its other end.
func (h *hoodSet) extend(ctx context.Context, s *SharedIndex, eps float64, workers int, src sourceFor, onItem func()) (int, error) {
	lo, n := len(h.w), len(s.items)
	h.ids = append(h.ids, make([][]int32, n-lo)...)
	h.w = append(h.w, make([]float64, n-lo)...)
	own := make([][]int32, n-lo)
	if src == nil {
		src = scored
	}
	views := make([]neighborSource, par.Workers(workers, n-lo))
	scs := make([]*scratchSet, len(views))
	calls := make([]int, len(views))
	blocks := make([][]int32, len(views)) // the block each worker fills
	for w := range views {
		views[w], scs[w] = src(s.Cursor(), eps), s.getScratch()
	}
	err := par.ForEachCtx(ctx, workers, n-lo, func(w, k int) {
		sc := scs[w]
		var c int
		sc.own, c = views[w].owned(lo+k, lo, sc, sc.own[:0])
		calls[w] += c
		slices.Sort(sc.own)
		buf := blocks[w]
		if cap(buf)-len(buf) < len(sc.own) {
			buf = make([]int32, 0, max(min(2*cap(buf), blockIDs), minBlockIDs, len(sc.own)))
		}
		start := len(buf)
		buf = append(buf, sc.own...)
		blocks[w] = buf
		own[k] = buf[start:]
		if onItem != nil {
			onItem()
		}
	})
	total := 0
	for w, sc := range scs {
		total += calls[w]
		s.scr.Put(sc)
	}
	if err != nil {
		return total, err
	}
	h.reflect(s.items, lo, own)
	return total, nil
}

// reflect is extend's serial half. own[k] holds the ascending within-ε ids
// item i = lo+k owns: ids below lo (items this pass did not query) and ids
// ≥ i. Visiting the owners in ascending order, it lays out item i's
// neighborhood as one capacity-capped window of a new flat array, ascending
// throughout — its owned ids below lo, then the earlier owners that scored
// it, then its owned ids ≥ i — and appends i to every old neighbor's window,
// where it lands last since every queried id exceeds every old one. Every
// weight is then the left-to-right sum of its window in id order (an old
// item's running sum grows by the same additions), so it is one float on
// every backend, worker count and append schedule.
func (h *hoodSet) reflect(items []Item, lo int, own [][]int32) {
	// next[k] is first item lo+k's window size, then its write cursor.
	next := make([]int, len(own))
	total := 0
	for k, ids := range own {
		total += len(ids)
		next[k] += len(ids)
		for _, j := range ids {
			if int(j) > lo+k {
				next[int(j)-lo]++
				total++
			}
		}
	}
	store := make([]int32, total)
	at := 0
	for k, ids := range own {
		size := next[k]
		old, _ := slices.BinarySearch(ids, int32(lo))
		h.ids[lo+k] = store[at : at+size : at+size]
		copy(store[at:], ids[:old])
		next[k] = at + old
		at += size
	}
	for k, ids := range own {
		i := lo + k
		old, _ := slices.BinarySearch(ids, int32(lo))
		for _, j := range ids[:old] {
			h.ids[j] = append(h.ids[j], int32(i))
			h.w[j] += items[i].Weight
		}
		for _, j := range ids[old:] {
			store[next[k]] = j
			next[k]++
			if int(j) > i {
				store[next[int(j)-lo]] = int32(i)
				next[int(j)-lo]++
			}
		}
		var w float64
		for _, j := range h.ids[i] {
			w += items[j].Weight
		}
		h.w[i] = w
	}
}

// NeighborhoodWeights returns, for every item, the weighted cardinality of
// its ε-neighborhood, at any eps: the index is ε-free and every query
// derives its own candidate radius. It parallelises across workers (≤ 0
// means all CPUs). It is the per-ε oracle for the Section 4.4 heuristic
// (entropy over |Nε| and avg|Nε|): the search itself reads the same
// weights from a dendrogram, and the tests diff the two.
func (s *SharedIndex) NeighborhoodWeights(eps float64, workers int) []float64 {
	out, _ := s.NeighborhoodWeightsCtx(context.Background(), eps, workers)
	return out
}

// NeighborhoodWeightsCtx is NeighborhoodWeights with cooperative
// cancellation; a non-nil error means the returned slice is incomplete and
// must be discarded. The weights are the grouping's own (hoodSet.w).
func (s *SharedIndex) NeighborhoodWeightsCtx(ctx context.Context, eps float64, workers int) ([]float64, error) {
	hs, _, err := s.neighborhoods(ctx, eps, workers, nil, nil)
	if err != nil {
		return nil, err
	}
	return hs.w, nil
}

package spindex

// This file is the one audited home of the dist ≥ c·mindist pruning logic:
// the ε-range candidate generation the grouping and estimation phases
// refine, and the exact expanding-radius nearest-segment search the online
// classifier assigns with. Both used to live as private copies in
// internal/segclust and the root classify.go; they share the same lower
// bound and must stay together.
//
// Since the columnar-kernel refactor the refinement arithmetic itself also
// lives behind this file: a Searcher owns the segpool.Pool mirror of its
// segment set and an lsdist.Kernel, and every caller that used to evaluate
// the scalar distance per candidate now scores whole candidate blocks
// through DistBlock/Nearest. The kernel path is bit-identical to the scalar
// one (see internal/lsdist/kernel.go), so which path runs is purely a
// performance property; datasets or queries with non-finite coordinates
// stay on the scalar fallback.

import (
	"math"

	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/segpool"
)

// maxExpandIters bounds the expanding-radius doublings of Nearest before it
// gives up on pruning and falls back to one exhaustive scan. 48 doublings
// take any positive radius past every finite coordinate scale.
const maxExpandIters = 48

// scanBlock is the chunk size of exhaustive kernel scans (Nearest's
// unpruned fallback): large enough to amortise the per-block call, small
// enough that the per-cursor distance scratch stays cache-resident.
const scanBlock = 1024

// Searcher couples one backend index with the exact TRACLUS distance and
// its Euclidean lower bound dist ≥ Factor·mindist. It is built once per
// dataset (the Builds counter pins that) and then answers any number of
// ε-range and nearest queries, at any ε, through per-goroutine SearchQuery
// cursors.
//
// When the distance weights admit no lower bound (Factor() == 0), or the
// caller asked for Brute, the index degenerates to the exhaustive scan and
// every query remains correct — just unpruned, as Lemma 3's baseline.
type Searcher struct {
	segs   []geom.Segment
	rects  []geom.Rect // fallback query rectangles; nil for brute or when pool covers them
	dist   lsdist.Func
	factor float64 // c in dist ≥ c·mindist; 0 = no sound pruning
	index  index
	brute  bool // the index reports every id on every query

	// Columnar fast path: the SoA mirror of segs and the batch kernel that
	// scores candidate blocks against it. pool is nil when any segment
	// coordinate is non-finite; every scoring entry point then falls back
	// to the scalar dist, which handles such inputs bit-identically to the
	// pre-kernel code (because it IS that code).
	pool   *segpool.Pool
	kernel *lsdist.Kernel
}

// NewSearcher builds backend's index over segs once and wraps it with the
// distance machinery for opt. A zero lower-bound factor (positional weight
// 0) forces the Brute backend regardless of the request — no other backend
// can be queried soundly without it. The columnar pool for the batch
// kernels is built here too: one pool per dataset, exactly like the index.
func NewSearcher(segs []geom.Segment, opt lsdist.Options, backend Backend) *Searcher {
	if !opt.Weights.Valid() {
		opt.Weights = lsdist.DefaultWeights()
	}
	s := &Searcher{
		segs:   segs,
		dist:   lsdist.New(opt),
		factor: lsdist.LowerBoundFactor(opt.Weights),
	}
	if pool, err := segpool.New(segs); err == nil {
		s.pool = pool
		s.kernel = lsdist.NewKernel(opt)
	}
	if s.factor == 0 {
		backend = Brute()
	}
	// Query rectangles for indexed-item queries are materialised only on
	// the scalar fallback: with a pool the coordinates are already resident
	// in its columns and rectOf derives the identical Bounds() on the fly,
	// so the precomputed copy would be len(segs) rects of pure overlap.
	if s.brute = backend == Brute(); !s.brute && s.pool == nil {
		s.rects = make([]geom.Rect, len(segs))
		for i, sg := range segs {
			s.rects[i] = sg.Bounds()
		}
	}
	s.index = backend.build(segs)
	return s
}

// rectOf returns indexed segment i's query rectangle — Bounds() of the
// segment, reconstructed from the pool columns when they exist (the round
// trip through the pool is exact, so the rect is bit-identical to the
// precomputed one).
func (s *Searcher) rectOf(i int) geom.Rect {
	if s.pool != nil {
		return s.pool.Segment(i).Bounds()
	}
	return s.rects[i]
}

// Len returns the number of indexed segments.
func (s *Searcher) Len() int { return len(s.segs) }

// Segment returns indexed segment i exactly as it was handed to
// NewSearcher. The snapshot layer reads the reference geometry back out
// through it, so a saved-and-reloaded searcher indexes bit-identical
// segments.
func (s *Searcher) Segment(i int) geom.Segment { return s.segs[i] }

// Factor returns the lower-bound constant c (0 = no pruning possible).
func (s *Searcher) Factor() float64 { return s.factor }

// Batched reports whether the columnar kernel path is active (false only
// for datasets with non-finite coordinates, which stay on the scalar
// fallback).
func (s *Searcher) Batched() bool { return s.pool != nil }

// Query returns a fresh per-goroutine cursor. Cursors are cheap relative to
// the index; pool them on serving hot paths.
func (s *Searcher) Query() *SearchQuery {
	return &SearchQuery{s: s, q: s.index.cursor()}
}

// SearchQuery is a per-goroutine cursor over a Searcher: it owns the
// candidate scratch, the distance scratch, and the backend cursor, so
// concurrent queries never share mutable state.
type SearchQuery struct {
	s    *Searcher
	q    cursor
	cand []int
	out  []float64
}

// radius converts a TRACLUS-distance threshold into the complete Euclidean
// candidate radius eps/c, with c the searcher's lsdist.LowerBoundFactor.
// The brute path never consults it.
func (sq *SearchQuery) radius(eps float64) float64 { return eps / sq.s.factor }

// CandidatesOf appends to dst the id of every indexed segment possibly
// within TRACLUS distance eps of indexed segment i: the Euclidean
// prefilter at radius eps/c against i's precomputed query rectangle.
// Callers refine with the exact distance. The returned ids are a superset
// of the true ε-neighborhood (completeness follows from the lower bound;
// see the package documentation).
func (sq *SearchQuery) CandidatesOf(i int, eps float64, dst []int) []int {
	return sq.within(i, eps, 0, 0, dst)
}

// within is the backend query for indexed segment i at TRACLUS radius eps,
// less the window [lo, hi).
func (sq *SearchQuery) within(i int, eps float64, lo, hi int, dst []int) []int {
	if sq.s.brute {
		return sq.q.within(geom.Rect{}, 0, lo, hi, dst)
	}
	return sq.q.within(sq.s.rectOf(i), sq.radius(eps), lo, hi, dst)
}

// OwnedCandidatesOf appends to dst the candidates of indexed segment i
// (CandidatesOf) that i owns in a neighborhood pass over the ids [lo, n),
// lo ≤ i: those outside the window [lo, i), whose ids an earlier item of
// the pass scores and hands to i. It also returns the pass's charge for i,
// |owned ∩ [0, lo)| + 2·|owned ∩ (i, n)| + [i ∈ owned], whose sum over the
// pass is Σ|CandidatesOf|: each owned j > i also stands for the pair's
// other end, which finds i in its window. The sum is exact because the
// candidate relation is symmetric (see the package documentation). That
// argument needs finite coordinates (a NaN rectangle clamps to the grid's
// edge cells), so a dataset with a non-finite coordinate takes the full
// list and drops the window, and is charged the list's length.
func (sq *SearchQuery) OwnedCandidatesOf(i, lo int, eps float64, dst []int) (owned []int, calls int) {
	start := len(dst)
	if sq.s.pool == nil {
		dst = sq.CandidatesOf(i, eps, dst)
		calls = len(dst) - start
		out := dst[:start]
		for _, j := range dst[start:] {
			if j < lo || j >= i {
				out = append(out, j)
			}
		}
		return out, calls
	}
	dst = sq.within(i, eps, lo, i, dst)
	for _, j := range dst[start:] {
		calls++
		if j > i {
			calls++
		}
	}
	return dst, calls
}

// DistBlock scores the TRACLUS distance from indexed segment i to every
// indexed candidate in ids against bound, into out index-aligned with ids
// (resized, reusing capacity). This is the refinement half of every
// ε-neighborhood query: CandidatesOf generates the block at ε, DistBlock
// scores it at bound = ε in one call through the batch kernel instead of
// one closure call per pair. Every pair within bound gets its exact
// distance, bit-identical to evaluating the scalar distance per pair; every
// other pair gets a value that is not within bound (lsdist.Kernel.DistBlock
// stops scoring a pair once it is past bound). bound = +Inf scores every
// pair exactly. Datasets off the kernel path (non-finite coordinates)
// always score exactly, through the scalar distance itself.
func (sq *SearchQuery) DistBlock(i int, ids []int, bound float64, out []float64) []float64 {
	s := sq.s
	if s.pool != nil {
		return s.kernel.DistBlock(s.pool, s.pool.View(i), ids, bound, out)
	}
	return sq.scalarBlock(s.segs[i], ids, out)
}

// DistBlockSeg scores the exact distance from a query segment that is not
// in the index (the classification shape) to every candidate in ids.
// Non-finite queries fall back to the scalar path.
func (sq *SearchQuery) DistBlockSeg(q geom.Segment, ids []int, out []float64) []float64 {
	s := sq.s
	if s.pool != nil {
		if qv, ok := segpool.ViewOf(q); ok {
			return s.kernel.DistBlock(s.pool, qv, ids, math.Inf(1), out)
		}
	}
	return sq.scalarBlock(q, ids, out)
}

// scalarBlock is the fallback block scorer: the scalar distance applied
// per candidate, producing the same index-aligned layout as the kernel.
func (sq *SearchQuery) scalarBlock(q geom.Segment, ids []int, out []float64) []float64 {
	out = out[:0]
	for _, j := range ids {
		out = append(out, sq.s.dist(q, sq.s.segs[j]))
	}
	return out
}

// Nearest returns the indexed segment exactly nearest to q under the
// TRACLUS distance, and that distance. seed is a TRACLUS-distance scale
// (typically the model's ε) seeding the first candidate radius seed/c; the
// search expands the radius geometrically, and the lower bound guarantees
// that once the best exact distance among candidates within Euclidean
// radius r is ≤ c·r, no segment outside the candidate set can be closer —
// the exactness invariant the property tests pin against brute force.
// Candidate blocks are scored through the batch kernel.
//
// Ties on the exact distance resolve through prefer: prefer(i, j) reports
// whether candidate i should replace the incumbent j (nil keeps the first
// encountered — note that candidate enumeration order is backend-specific,
// so deterministic callers must pass an order-free prefer). The returned id
// is -1 only when no distance evaluated below +Inf (extreme coordinates
// overflowing the computation).
func (sq *SearchQuery) Nearest(q geom.Segment, seed float64, prefer func(cand, incumbent int) bool) (id int, d float64) {
	return sq.nearest(q, seed, nil, prefer)
}

// NearestAdjusted is Nearest under the distance dist(q, ·) + adjust(id),
// where adjust is an arbitrary non-negative per-segment addend — the
// geometry hook the spatiotemporal classifier uses to add wT·gap between
// the query's time interval and each reference segment's cluster window.
//
// The expanding-radius termination stays exact: an unseen segment outside
// Euclidean radius r has spatial distance ≥ c·mindist > c·r, and because
// adjust ≥ 0 its adjusted distance is at least that; so once the best
// adjusted distance among candidates within r is ≤ c·r, no unseen segment
// can beat it. A negative addend would break this bound (and the search's
// exactness), which is why the contract requires adjust(id) ≥ 0 for all
// ids. nil adjust is exactly Nearest.
func (sq *SearchQuery) NearestAdjusted(q geom.Segment, seed float64, adjust func(id int) float64, prefer func(cand, incumbent int) bool) (id int, d float64) {
	return sq.nearest(q, seed, adjust, prefer)
}

// nearest is the shared expanding-radius implementation behind Nearest and
// NearestAdjusted; adjust is nil on the planar path.
func (sq *SearchQuery) nearest(q geom.Segment, seed float64, adjust func(id int) float64, prefer func(cand, incumbent int) bool) (id int, d float64) {
	s := sq.s
	if s.brute {
		return sq.scanNearest(q, adjust, prefer)
	}
	r := seed / s.factor
	if !(r > 0) || math.IsInf(r, 0) {
		return sq.scanNearest(q, adjust, prefer)
	}
	bounds := q.Bounds()
	for iter := 0; iter < maxExpandIters; iter++ {
		sq.cand = sq.q.within(bounds, r, 0, 0, sq.cand[:0])
		best, bestD := sq.bestOf(q, sq.cand, adjust, prefer)
		if best >= 0 && bestD <= s.factor*r {
			return best, bestD
		}
		r *= 2
		if math.IsInf(r, 0) {
			break
		}
	}
	return sq.scanNearest(q, adjust, prefer)
}

// scanNearest is the unpruned exact search over every indexed segment,
// kernel-scored in fixed-size blocks so the distance scratch stays small.
func (sq *SearchQuery) scanNearest(q geom.Segment, adjust func(id int) float64, prefer func(cand, incumbent int) bool) (int, float64) {
	s := sq.s
	var qv segpool.Seg
	batched := s.pool != nil
	if batched {
		var ok bool
		if qv, ok = segpool.ViewOf(q); !ok {
			batched = false
		}
	}
	b := bestTracker{id: -1, d: math.Inf(1), prefer: prefer}
	n := s.Len()
	for lo := 0; lo < n; lo += scanBlock {
		hi := lo + scanBlock
		if hi > n {
			hi = n
		}
		if batched {
			sq.out = s.kernel.DistRange(s.pool, qv, lo, hi, sq.out)
		} else {
			sq.out = ensureLen(sq.out, hi-lo)
			for j := lo; j < hi; j++ {
				sq.out[j-lo] = s.dist(q, s.segs[j])
			}
		}
		for t, d := range sq.out {
			if adjust != nil {
				d += adjust(lo + t)
			}
			b.offer(lo+t, d)
		}
	}
	return b.id, b.d
}

// bestOf selects the exact nearest among a candidate block, scoring the
// block through the kernel in one call and folding in the optional
// non-negative adjustment.
func (sq *SearchQuery) bestOf(q geom.Segment, cand []int, adjust func(id int) float64, prefer func(cand, incumbent int) bool) (int, float64) {
	sq.out = sq.DistBlockSeg(q, cand, sq.out)
	b := bestTracker{id: -1, d: math.Inf(1), prefer: prefer}
	for t, d := range sq.out {
		if adjust != nil {
			d += adjust(cand[t])
		}
		b.offer(cand[t], d)
	}
	return b.id, b.d
}

// bestTracker folds scored (id, distance) pairs into the running exact
// minimum with the deterministic tie-break contract of Nearest: a candidate
// replaces the incumbent when strictly closer, or on an exact finite tie
// when prefer says so. An id of -1 means no distance compared below +Inf
// and callers must treat the query as unclassifiable.
type bestTracker struct {
	id     int
	d      float64
	prefer func(cand, incumbent int) bool
}

func (b *bestTracker) offer(j int, d float64) {
	if d < b.d || (d == b.d && d < math.Inf(1) && b.prefer != nil && b.id >= 0 && b.prefer(j, b.id)) {
		b.id, b.d = j, d
	}
}

// ensureLen returns out resized to n, reusing its capacity when possible;
// growth is at least doubling so creeping block sizes do not reallocate at
// every new maximum.
func ensureLen(out []float64, n int) []float64 {
	if cap(out) < n {
		c := 2 * cap(out)
		if c < n {
			c = n
		}
		return make([]float64, n, c)
	}
	return out[:n]
}

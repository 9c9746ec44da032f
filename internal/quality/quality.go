// Package quality implements the clustering quality measure of Section 5.1
// (Formula 11): QMeasure = Total SSE + Noise Penalty, where the SSE of a
// cluster is the mean pairwise squared distance normalised as
// 1/(2|C|)·ΣΣ dist(x,y)² and the noise penalty applies the same form to
// the set of noise segments, penalising "incorrectly classified noises"
// when ε is too small or MinLns too large.
//
// Every term is exact up to one rounding. The double sum counts each
// unordered pair twice, so SSE(C) = round(Σ_{x<y∈C} fl(d²)) / |C|: each
// squared distance is summed without rounding in a fixed-point accumulator
// and the sum is rounded once. The value therefore depends only on which
// pairs a group holds — not on the worker count, the member order, or
// whether it was computed from scratch or advanced from an earlier
// clustering.
//
// A State carries one exact pair sum per group (each cluster, plus the
// noise set) and advances to a new clustering of the same or a grown item
// set by scoring only the pairs whose co-membership changed; Measure is the
// from-scratch readout. Each row of pairs is scored in one batched kernel
// call (lsdist.Kernel.DistBlock, exact) over a columnar pool of the items;
// an item set with a non-finite coordinate, which no pool holds, is scored
// through the scalar lsdist.DistOpt instead, with the same bits. A Sweep
// scores many clusterings of one item set — the steps of an ε sweep — over
// one pool and one set of row buffers. See ARCHITECTURE.md, "Quality
// measure".
package quality

import (
	"context"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/par"
	"repro/internal/segclust"
	"repro/internal/segpool"
)

// Breakdown separates the two terms of QMeasure.
type Breakdown struct {
	TotalSSE     float64
	NoisePenalty float64
}

// QMeasure returns TotalSSE + NoisePenalty.
func (b Breakdown) QMeasure() float64 { return b.TotalSSE + b.NoisePenalty }

// Measure computes the quality breakdown of a clustering result over its
// input items from scratch. workers ≤ 0 uses GOMAXPROCS.
func Measure(items []segclust.Item, res *segclust.Result, opt lsdist.Options, workers int) Breakdown {
	st, _ := (*State)(nil).Next(context.Background(), items, res, opt, workers) // a background context never ends the pass early
	return st.Breakdown()
}

// State is the exact Formula-11 state of one clustering: the group of
// every item and the exact pair sum of every group. It costs 4 bytes per
// item plus about 300 bytes per group, and refers to no item; it is
// immutable once Next returns it, so any number of goroutines may read or
// advance it.
type State struct {
	of    []int32   // item → group: cluster index, or len(sums)−1 for noise
	sums  []acc     // per group: exact Σ_{x<y∈g} fl(dist(x,y)²)
	sse   []float64 // per group: sums[g] rounded once, over |g|
	b     Breakdown
	pairs int
}

// SSE returns cluster i's term of Total SSE.
func (s *State) SSE(i int) float64 { return s.sse[i] }

// Breakdown returns the two terms of QMeasure. TotalSSE adds the cluster
// terms in cluster order.
func (s *State) Breakdown() Breakdown { return s.b }

// Pairs returns how many pair distances Next scored to derive this state.
func (s *State) Pairs() int { return s.pairs }

// Next measures the clustering res of items, advancing from s: a nil s
// means from scratch, otherwise s must describe an earlier clustering of a
// prefix of items, in the same order — a sweep step over the same items,
// or the epoch before an append, whose new items come last. The receiver
// is never modified, so the old state stays valid.
//
// Each new group starts from the old group it shares the most members with
// (ties to the lowest index; the noise set from the old noise set),
// subtracts the pairs of the members that left and adds the pairs of the
// members that arrived. It does so only when that scores fewer pairs than
// the group's full triangle |g|(|g|−1)/2, and otherwise sums the group from
// scratch. Both give the same bits. Rows — one member each — run on
// workers goroutines (≤ 0 uses GOMAXPROCS); a done ctx stops the pass
// within one row and returns ctx.Err().
func (s *State) Next(ctx context.Context, items []segclust.Item, res *segclust.Result, opt lsdist.Options, workers int) (*State, error) {
	return NewSweep(items, opt, workers).Next(ctx, res, s)
}

// Sweep scores a sequence of clusterings of one item set, such as the
// steps of an ε sweep: the first pass that scores a pair gathers the items'
// pool, and every later pass reuses it and the workers' row buffers. Its
// states are bit for bit those of State.Next. A Sweep is not safe for
// concurrent use.
type Sweep struct {
	items   []segclust.Item
	opt     lsdist.Options
	workers int
	sc      *scorer  // nil until a pass scores a pair
	bufs    []rowBuf // per worker
}

// NewSweep returns a Sweep over items under opt, whose passes run on
// workers goroutines (≤ 0 uses GOMAXPROCS).
func NewSweep(items []segclust.Item, opt lsdist.Options, workers int) *Sweep {
	return &Sweep{items: items, opt: opt, workers: workers}
}

// Next measures the clustering res of the sweep's items as State.Next
// does, advancing from whichever of bases scores the fewest pairs — the
// first on a tie — or from scratch when none is cheaper. A base is nil or
// an earlier clustering of a prefix of the items, in the same order, and is
// never modified; a state of more items than res is skipped.
func (sw *Sweep) Next(ctx context.Context, res *segclust.Result, bases ...*State) (*State, error) {
	k := len(res.Clusters)
	next := &State{
		of:   make([]int32, len(res.ClusterOf)),
		sums: make([]acc, k+1),
		sse:  make([]float64, k+1),
	}
	for i, c := range res.ClusterOf {
		if c == segclust.Noise {
			c = k
		}
		next.of[i] = int32(c)
	}
	cur := groupsOf(next.of, k+1)
	var s *State
	ds, pairs := s.plan(cur, next.of) // from scratch: every group's full triangle
	for _, b := range bases {
		if b != nil && len(b.of) <= len(next.of) {
			if bds, bpairs := b.plan(cur, next.of); bpairs < pairs {
				s, ds, pairs = b, bds, bpairs
			}
		}
	}

	rows := 0
	for g := range ds {
		ds[g].row = rows
		rows += ds[g].rows()
		if b := ds[g].base; b >= 0 {
			next.sums[g] = s.sums[b]
		}
	}
	// Worker 0 scores into next.sums; every other worker into its own
	// accumulators, merged exactly afterwards.
	nw := par.Workers(sw.workers, rows)
	scratch := make([][]acc, nw)
	if rows > 0 && sw.sc == nil {
		sw.sc = newScorer(sw.items, sw.opt)
	}
	if len(sw.bufs) < nw {
		sw.bufs = append(sw.bufs, make([]rowBuf, nw-len(sw.bufs))...)
	}
	sc, bufs := sw.sc, sw.bufs
	err := par.ForEachCtx(ctx, nw, rows, func(w, r int) {
		g := sort.Search(len(ds), func(i int) bool { return ds[i].row+ds[i].rows() > r })
		sums := next.sums
		if w > 0 {
			if scratch[w] == nil {
				scratch[w] = make([]acc, len(ds))
			}
			sums = scratch[w]
		}
		ds[g].score(&sums[g], r-ds[g].row, sc, &bufs[w])
	})
	if err != nil {
		return nil, err
	}
	for _, sums := range scratch {
		for g := range sums {
			next.sums[g].merge(&sums[g])
		}
	}

	for g := range ds {
		switch n := cur.size(g); {
		case ds[g].base >= 0 && ds[g].rows() == 0:
			next.sse[g] = s.sse[ds[g].base]
		case n > 0:
			next.sse[g] = next.sums[g].float() / float64(n)
		}
	}
	for _, v := range next.sse[:k] {
		next.b.TotalSSE += v
	}
	next.b.NoisePenalty = next.sse[k]
	next.pairs = pairs
	return next, nil
}

// delta derives one group's sum: start from the old group base's sum (zero
// when base < 0), subtract every pair touching a gone member, and add every
// pair touching a came member. kept holds the members both groups share.
// All three lists are ascending.
type delta struct {
	base             int
	kept, gone, came []int32
	row              int // the group's first row in the pass
}

func (d *delta) rows() int { return len(d.gone) + len(d.came) }

// plan chooses every new group's delta and returns the pairs they score.
func (s *State) plan(cur groups, of []int32) ([]delta, int) {
	ds := make([]delta, cur.len())
	var prev groups
	var tally []int
	if s != nil {
		prev = groupsOf(s.of, len(s.sums))
		tally = make([]int, len(s.sums))
	}
	pairs := 0
	for g := range ds {
		m := cur.members(g)
		ds[g] = delta{base: -1, came: m}
		cost := triangle(len(m))
		if s != nil {
			if h, kept := s.base(m, g == len(ds)-1, tally); h >= 0 {
				// Pairs touching a departed member, plus pairs touching an
				// arrival.
				if d := triangle(prev.size(h)) - triangle(kept) + cost - triangle(kept); d < cost {
					ds[g] = split(h, int32(g), m, prev.members(h), kept, s.of, of)
					cost = d
				}
			}
		}
		pairs += cost
	}
	return ds, pairs
}

// base picks the old group a new group with members m starts from: the old
// noise set for the noise group, otherwise the old group sharing the most
// members with it, ties to the lowest index. It returns that group and the
// number of shared members, or −1 when m shares no member with any old
// cluster. tally is zeroed scratch sized to the old groups, and is zeroed
// again on return.
func (s *State) base(m []int32, noise bool, tally []int) (h, shared int) {
	oldNoise := int32(len(s.sums) - 1)
	old := m
	for i, x := range m {
		if int(x) >= len(s.of) {
			old = m[:i] // members are ascending: the rest are new items
			break
		}
	}
	if noise {
		for _, x := range old {
			if s.of[x] == oldNoise {
				shared++
			}
		}
		return int(oldNoise), shared
	}
	h = -1
	for _, x := range old {
		o := s.of[x]
		tally[o]++
		if n := tally[o]; n > shared || n == shared && int(o) < h {
			h, shared = int(o), n
		}
	}
	for _, x := range old {
		tally[s.of[x]] = 0
	}
	return h, shared
}

// split builds the delta of new group g (members m) from old group h
// (members hm), which share kept members.
func split(h int, g int32, m, hm []int32, kept int, oldOf, of []int32) delta {
	d := delta{
		base: h,
		kept: make([]int32, 0, kept),
		gone: make([]int32, 0, len(hm)-kept),
		came: make([]int32, 0, len(m)-kept),
	}
	for _, x := range m {
		if int(x) < len(oldOf) && oldOf[x] == int32(h) {
			d.kept = append(d.kept, x)
		} else {
			d.came = append(d.came, x)
		}
	}
	for _, x := range hm {
		if of[x] != g {
			d.gone = append(d.gone, x)
		}
	}
	return d
}

// score runs row r of d into a: a gone member's pairs with the kept members
// and the gone members after it are subtracted, a came member's pairs with
// the kept members and the came members after it are added. The distance
// is symmetric to the bit and the sum exact, so the order in which a row
// scores its pairs does not change the state.
func (d *delta) score(a *acc, r int, sc *scorer, buf *rowBuf) {
	neg, list := r < len(d.gone), d.came
	if neg {
		list = d.gone
	} else {
		r -= len(d.gone)
	}
	buf.ids = buf.ids[:0]
	for _, y := range d.kept {
		buf.ids = append(buf.ids, int(y))
	}
	for _, y := range list[r+1:] {
		buf.ids = append(buf.ids, int(y))
	}
	for _, v := range sc.dists(int(list[r]), buf) {
		if neg {
			a.sub(v * v)
		} else {
			a.add(v * v)
		}
	}
}

// scorer scores rows of pairs over one item set: with the batched kernel
// over a pool of the items, or, where an item has a non-finite coordinate
// and no pool holds the set, with the scalar distance.
type scorer struct {
	items []segclust.Item
	opt   lsdist.Options
	k     *lsdist.Kernel
	pool  *segpool.Pool // nil: the scalar path
}

// rowBuf is one worker's row scratch: the row's partner ids and their
// distances.
type rowBuf struct {
	ids []int
	d   []float64
}

func newScorer(items []segclust.Item, opt lsdist.Options) *scorer {
	if !opt.Weights.Valid() {
		opt.Weights = lsdist.DefaultWeights() // the kernel's rule, for the scalar path
	}
	// Gather fails, returning nil, on a non-finite coordinate: the scalar
	// path scores such a set.
	pool, _ := segpool.Gather(len(items), func(i int) geom.Segment { return items[i].Seg })
	return &scorer{items: items, opt: opt, k: lsdist.NewKernel(opt), pool: pool}
}

// dists returns dist(x, y) for every y in buf.ids, in buf.d.
func (sc *scorer) dists(x int, buf *rowBuf) []float64 {
	if sc.pool != nil {
		buf.d = sc.k.DistBlock(sc.pool, sc.pool.View(x), buf.ids, math.Inf(1), buf.d)
		return buf.d
	}
	buf.d = buf.d[:0]
	for _, y := range buf.ids {
		buf.d = append(buf.d, lsdist.DistOpt(sc.items[x].Seg, sc.items[y].Seg, sc.opt))
	}
	return buf.d
}

// triangle is the number of unordered pairs among n items.
func triangle(n int) int { return n * (n - 1) / 2 }

// groups lists every group's members in ascending item order: group g
// holds ids[off[g]:off[g+1]].
type groups struct {
	off []int
	ids []int32
}

func groupsOf(of []int32, n int) groups {
	gs := groups{off: make([]int, n+1), ids: make([]int32, len(of))}
	for _, g := range of {
		gs.off[g+1]++
	}
	for g := 0; g < n; g++ {
		gs.off[g+1] += gs.off[g]
	}
	fill := slices.Clone(gs.off[:n])
	for i, g := range of {
		gs.ids[fill[g]] = int32(i)
		fill[g]++
	}
	return gs
}

func (gs groups) len() int              { return len(gs.off) - 1 }
func (gs groups) size(g int) int        { return gs.off[g+1] - gs.off[g] }
func (gs groups) members(g int) []int32 { return gs.ids[gs.off[g]:gs.off[g+1]] }

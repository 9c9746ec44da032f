// Package segpool provides the columnar (structure-of-arrays) mirror of a
// segment set that the batched distance kernels of internal/lsdist score
// against. The clustering, estimation, and classification hot paths all
// reduce to "evaluate the TRACLUS distance between one query segment and a
// block of candidate segments"; with the classic array-of-structs layout
// every evaluation loads a 4-field geom.Segment through an interface or
// closure call. A Pool instead stores each coordinate in its own contiguous
// float64 slice — the MonetDB "vertical storage" layout — plus the
// per-segment precomputes every distance evaluation re-derives from them
// (direction vector, squared length, length), so a batch kernel streams
// straight through flat arrays with no per-pair dispatch.
//
// A Pool is built once per dataset (NewSearcher in internal/spindex owns
// that build, and the Builds counter lets tests pin it) and is immutable
// afterwards, so any number of goroutines may score against it. The
// Formula-11 quality measure also pools its items, for one pass, with
// Gather, which is not counted as an index's build.
//
// Pools reject non-finite coordinates at build time: the batch kernels
// replicate the scalar distance's floating-point operations exactly, but a
// NaN anywhere makes the longer/shorter ordering comparisons
// degenerate-but-defined in ways no caller should rely on, so the searcher
// layer keeps such datasets on the scalar path instead (the error return
// here is that signal, not a failure).
package segpool

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/geom"
)

// Pool is the columnar segment store. Column i of every slice describes the
// same source segment; all columns share one backing allocation and are
// exactly len(segs) long. The derived columns are bit-identical to what the
// scalar distance computes on the fly:
//
//	Length = math.Hypot(X2-X1, Y2-Y1)   (≡ Segment.Length: Hypot is sign-blind)
//
// The direction vector (DX, DY = X2-X1, Y2-Y1) and squared length
// (Len2 = DX² + DY²) are NOT stored: both are a few flops from coordinates
// already resident in the gather, and re-deriving them there is bit-identical
// (same inputs, same operations as construction would have used) — stored
// columns would be pure extra bandwidth. Length stays precomputed because
// math.Hypot is a function call, not a flop. The angle between two segments
// cannot be precomputed per segment at all; its per-segment ingredients
// (DX, DY, Length) are what the kernels consume.
type Pool struct {
	X1, Y1, X2, Y2 []float64 // endpoint coordinates
	Length         []float64 // Euclidean length
}

// Seg is one segment's row of the pool — the fully precomputed view a
// kernel scores with. Query segments from outside the pool (online
// classification) are lifted into the same shape by ViewOf.
type Seg struct {
	X1, Y1, X2, Y2 float64
	DX, DY         float64
	Len2, Length   float64
}

// NonFiniteError reports the first segment whose coordinates are not all
// finite, which keeps the dataset off the batched kernel path.
type NonFiniteError struct {
	// Index of the offending segment in the input slice.
	Index int
	// Seg is the offending segment.
	Seg geom.Segment
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("segpool: segment %d has non-finite coordinates: %v", e.Index, e.Seg)
}

// builds counts every pool constructed since process start. Tests read it
// (via Builds) to pin the build-once data flow: a model build must
// construct exactly one pool per dataset it indexes, mirroring the
// spindex.Builds index counter.
var builds atomic.Int64

// Builds returns the number of pools built so far.
func Builds() int64 { return builds.Load() }

// New builds the columnar pool over segs. It returns a *NonFiniteError if
// any coordinate is NaN or ±Inf — the caller is expected to fall back to
// the scalar distance path for such inputs, not to fail the run. An empty
// input builds an empty pool. A successful build counts toward Builds.
func New(segs []geom.Segment) (*Pool, error) {
	p, err := Gather(len(segs), func(i int) geom.Segment { return segs[i] })
	if err == nil {
		builds.Add(1)
	}
	return p, err
}

// Gather is New over n segments read through seg, for segments that sit
// inside other records: no slice of them is copied out. It does not count
// toward Builds, which pins the pools behind indexes; the quality measure
// gathers its items into a pool that backs no index, which the states of
// one sweep share.
func Gather(n int, seg func(i int) geom.Segment) (*Pool, error) {
	// One backing array, sliced into the five columns: a single allocation,
	// and each column is contiguous for the kernels' streaming loads.
	backing := make([]float64, 5*n)
	p := &Pool{
		X1: backing[0*n : 1*n : 1*n], Y1: backing[1*n : 2*n : 2*n],
		X2: backing[2*n : 3*n : 3*n], Y2: backing[3*n : 4*n : 4*n],
		Length: backing[4*n : 5*n : 5*n],
	}
	for i := 0; i < n; i++ {
		s := seg(i)
		v, ok := ViewOf(s)
		if !ok {
			return nil, &NonFiniteError{Index: i, Seg: s}
		}
		p.X1[i], p.Y1[i], p.X2[i], p.Y2[i] = v.X1, v.Y1, v.X2, v.Y2
		p.Length[i] = v.Length
	}
	return p, nil
}

// Len returns the number of pooled segments.
func (p *Pool) Len() int { return len(p.X1) }

// Segment reconstructs pooled segment i; the round trip through the pool is
// exact (coordinates are stored verbatim).
func (p *Pool) Segment(i int) geom.Segment {
	return geom.Segment{
		Start: geom.Point{X: p.X1[i], Y: p.Y1[i]},
		End:   geom.Point{X: p.X2[i], Y: p.Y2[i]},
	}
}

// View returns pooled segment i as a kernel-ready row. DX/DY/Len2 are
// re-derived from the verbatim-stored coordinates — bit-identical to what
// ViewOf computed at build time, since the inputs and operations match.
func (p *Pool) View(i int) Seg {
	x1, y1, x2, y2 := p.X1[i], p.Y1[i], p.X2[i], p.Y2[i]
	dx, dy := x2-x1, y2-y1
	return Seg{
		X1: x1, Y1: y1, X2: x2, Y2: y2,
		DX: dx, DY: dy, Len2: dx*dx + dy*dy, Length: p.Length[i],
	}
}

// ViewOf lifts an arbitrary segment into a kernel-ready row, computing the
// same derived values pool construction stores. It reports false when a
// coordinate is non-finite (such queries must take the scalar path).
// Derived values may still overflow to ±Inf for extreme finite coordinates;
// that is fine — the kernels replicate the scalar code's operations, which
// overflow identically.
func ViewOf(s geom.Segment) (Seg, bool) {
	if !s.Start.IsFinite() || !s.End.IsFinite() {
		return Seg{}, false
	}
	return Lift(s), true
}

// Lift is ViewOf without the finiteness check, for callers that score
// views with the kernel outside any pool (MDL partitioning). A non-finite
// coordinate gives the non-finite derived values the scalar distance
// computes from it.
func Lift(s geom.Segment) Seg {
	dx := s.End.X - s.Start.X
	dy := s.End.Y - s.Start.Y
	return Seg{
		X1: s.Start.X, Y1: s.Start.Y, X2: s.End.X, Y2: s.End.Y,
		DX: dx, DY: dy,
		Len2:   dx*dx + dy*dy,
		Length: math.Hypot(dx, dy),
	}
}

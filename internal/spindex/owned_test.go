package spindex

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/lsdist"
)

// FuzzOwnedCandidates pins the ownership extension against the full query
// it replaces. Over fuzz-chosen segments (zero-length ones included), the
// tail of them appended through Searcher.Grow at a fuzz-chosen scale (so
// beyond the build-time extent), a radius and a pass start lo, on every
// backend: for each item i of the pass [lo, n), OwnedCandidatesOf appends to
// dst exactly the full CandidatesOf with the ids in [lo, i) dropped, in the
// same order and with no repeats, and the pass's charges sum to the full
// lists' lengths. The owning cursor predates the Grow, so it also has to
// see the appended ids.
func FuzzOwnedCandidates(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 0, 1, 10, 1, 5, 5, 5, 5, 0, 2, 10, 2, 3, 3, 3, 3, 9, 9, 20, 20}, 4.0, uint8(3), uint8(1), uint8(2), uint8(0))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 120, 120, 120, 120}, 0.5, uint8(2), uint8(0), uint8(5), uint8(1))
	f.Add([]byte{0, 0, 100, 0, 0, 13, 100, 13, 0, 8, 100, 8, 0, 1, 100, 1, 0, 14, 100, 14}, 30.0, uint8(0), uint8(2), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, eps float64, split, lo, scale, backend uint8) {
		if !(eps > 0) || math.IsInf(eps, 0) {
			t.Skip()
		}
		var segs []geom.Segment
		for k := 0; k+4 <= len(data) && len(segs) < 48; k += 4 {
			c := func(b byte) float64 { return float64(int8(b)) }
			segs = append(segs, geom.Seg(c(data[k]), c(data[k+1]), c(data[k+2]), c(data[k+3])))
		}
		p := 0
		if len(segs) > 0 {
			p = int(split) % (len(segs) + 1)
		}
		grown := slices.Clone(segs[p:])
		s := float64(1 + scale%16)
		for k, g := range grown {
			grown[k] = geom.Seg(s*g.Start.X, s*g.Start.Y, s*g.End.X, s*g.End.Y)
		}
		b := []Backend{Grid(), RTree(), Brute()}[backend%3]
		srch := NewSearcher(slices.Clone(segs[:p]), lsdist.DefaultOptions(), b)
		owner := srch.Query()
		srch.Grow(grown)
		full := srch.Query()
		n := srch.Len()
		start := 0
		if n > 0 {
			start = int(lo) % n
		}
		sumOwned, sumFull := 0, 0
		for i := start; i < n; i++ {
			all := full.CandidatesOf(i, eps, nil)
			want := []int{-1}
			for _, j := range all {
				if j < start || j >= i {
					want = append(want, j)
				}
			}
			got, calls := owner.OwnedCandidatesOf(i, start, eps, []int{-1})
			if !slices.Equal(got, want) {
				t.Fatalf("%s: item %d of pass [%d, %d): owned %v, want %v (full %v)", b.Name(), i, start, n, got[1:], want[1:], all)
			}
			ids := slices.Clone(got[1:])
			slices.Sort(ids)
			if len(slices.Compact(ids)) != len(got)-1 {
				t.Fatalf("%s: item %d: owned %v repeats an id", b.Name(), i, got[1:])
			}
			sumOwned += calls
			sumFull += len(all)
		}
		if sumOwned != sumFull {
			t.Fatalf("%s: pass [%d, %d) charged %d, want Σ|CandidatesOf| = %d", b.Name(), start, n, sumOwned, sumFull)
		}
	})
}

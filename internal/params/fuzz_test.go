package params

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dendro"
	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/segclust"
	"repro/internal/spindex"
)

// FuzzEstimateOracle diffs the one ε search against its oracle on
// fuzz-chosen unit-weight segments (coincident and zero-length ones
// included), range, seed and backend: EstimateEpsDendroCtx over a
// dendrogram built at hi must return exactly the Estimate the annealer
// returns over per-ε neighborhood passes on a brute index. Each segment is
// five bytes, four coordinates and a trajectory id, as in FuzzGroupOracle;
// the range is [lo, hi] = [(1+loQ)/64, lo + (1+spanQ)/64], on the scale of
// the int8 coordinates.
func FuzzEstimateOracle(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 0, 0, 1, 10, 1, 1, 0, 2, 10, 2, 2, 5, 5, 5, 5, 3, 5, 5, 5, 5, 4, 0, 0, 10, 0, 5}, uint16(32), uint16(600), int64(0), uint8(0))
	f.Add([]byte{1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 9, 9, 9, 9, 3}, uint16(0), uint16(200), int64(7), uint8(1))
	f.Add([]byte{0, 0, 100, 0, 0, 0, 13, 100, 13, 1, 0, 8, 100, 8, 2, 0, 1, 100, 1, 3, 0, 14, 100, 14, 4}, uint16(64), uint16(6000), int64(42), uint8(2))
	backends := []spindex.Backend{spindex.Grid(), spindex.RTree(), spindex.Brute()}
	f.Fuzz(func(t *testing.T, data []byte, loQ, spanQ uint16, seed int64, backend uint8) {
		var items []segclust.Item
		for k := 0; k+5 <= len(data) && len(items) < 40; k += 5 {
			c := func(b byte) float64 { return float64(int8(b)) }
			items = append(items, segclust.Item{Seg: geom.Seg(c(data[k]), c(data[k+1]), c(data[k+2]), c(data[k+3])), TrajID: int(data[k+4] % 5), Weight: 1})
		}
		lo := float64(1+int(loQ)) / 64
		hi := lo + float64(1+int(spanQ))/64
		opt := lsdist.DefaultOptions()
		an := AnnealOptions{Seed: seed}
		ctx := context.Background()

		d, err := dendro.FromShared(ctx, segclust.NewSharedIndexFor(items, opt, backends[int(backend)%len(backends)]), hi, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EstimateEpsDendroCtx(ctx, d, lo, hi, an)
		if len(items) == 0 {
			if err == nil {
				t.Fatalf("no segments accepted: %+v", got)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		brute := segclust.NewSharedIndexFor(items, opt, spindex.Brute())
		want, err := anneal(ctx, lo, hi, an, func(eps float64) ([]float64, error) {
			return brute.NeighborhoodWeightsCtx(ctx, eps, 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("range [%v, %v], seed %d, backend %d: dendrogram search %+v, per-ε oracle %+v",
				lo, hi, seed, backend, got, want)
		}
	})
}

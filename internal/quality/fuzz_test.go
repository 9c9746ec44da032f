package quality

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/segclust"
)

// FuzzQualityDelta: fuzz-chosen segments and two labelings — the first over
// a prefix of the items, as before an append, the second over all of them.
// Advancing a state from the first labeling to the second, and on to the
// first labeling extended to every item, must read out exactly what a
// from-scratch pass gives, with non-finite coordinates included.
func FuzzQualityDelta(f *testing.F) {
	f.Add([]byte("\x20\x00\x01\x00\x02\x00\x03\x00\x04\x01\x02\x00\x11\x00\x12\x00\x13\x00\x14\x01\x01\x00\x21\x00\x22\x00\x23\x00\x24\x02\x01"), uint8(2), uint8(1))
	f.Add([]byte("\x08\xff\x7f\x00\x00\x10\x00\x00\x00\x00\x00\x00\x80\x05\x00\x07\x00\x00\x00\x02\x03\x09\x00\x01\x00\x01\x00\x01\x00\x01\x04"), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, split, workers uint8) {
		const rec = 10 // four int16 coordinates and two labels per item
		if len(data) < 1 {
			return
		}
		scale := math.Ldexp(1, int(data[0]%80)-40)
		data = data[1:]
		n := min(len(data)/rec, 64)
		coord := func(b []byte) float64 {
			switch v := int16(binary.LittleEndian.Uint16(b)); v {
			case math.MaxInt16:
				return math.NaN()
			case math.MinInt16:
				return math.Inf(1)
			default:
				return float64(v) * scale
			}
		}
		items := make([]segclust.Item, n)
		labelsA, labelsB := make([]int, n), make([]int, n)
		for i := range items {
			r := data[i*rec : (i+1)*rec]
			items[i] = segclust.Item{
				Seg:    geom.Seg(coord(r[0:]), coord(r[2:]), coord(r[4:]), coord(r[6:])),
				TrajID: i,
				Weight: 1,
			}
			labelsA[i], labelsB[i] = int(r[8]%5)-1, int(r[9]%5)-1
		}
		n0 := int(split) % (n + 1)
		opt := lsdist.DefaultOptions()
		ctx := context.Background()
		measure := func(base *State, items []segclust.Item, labels []int, w int) *State {
			st, err := base.Next(ctx, items, segclust.ResultFromLabels(items, labels, 0, 0), opt, w)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		w := int(workers%4) + 1
		s0 := measure(nil, items[:n0], labelsA[:n0], w)
		s1 := measure(s0, items, labelsB, w)
		sameState(t, "prefix → all items", s1, measure(nil, items, labelsB, 1))
		s2 := measure(s1, items, labelsA, w)
		sameState(t, "relabelled", s2, measure(nil, items, labelsA, 1))
	})
}

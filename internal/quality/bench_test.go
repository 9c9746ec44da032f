package quality

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dendro"
	"repro/internal/lsdist"
	"repro/internal/segclust"
	"repro/internal/spindex"
	"repro/internal/synth"
)

// BenchmarkMeasure times one from-scratch quality pass — what every model
// build pays once — over a 400-track hurricane clustering at ε = 30.
func BenchmarkMeasure(b *testing.B) {
	cfg := synth.DefaultHurricaneConfig()
	cfg.NumTracks = 400
	ccfg := core.DefaultConfig()
	ccfg.Partition.CostAdvantage, ccfg.Partition.MinLength = 15, 40
	items := core.PartitionAll(synth.Hurricanes(cfg), ccfg)
	d, err := dendro.FromShared(context.Background(), segclust.NewSharedIndexFor(items, lsdist.DefaultOptions(), spindex.Grid()), 30, 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := d.CutAt(30, 6, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Measure(items, res, lsdist.DefaultOptions(), 1)
	}
}

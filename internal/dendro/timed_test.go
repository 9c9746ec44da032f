package dendro

// CutAt ≡ fresh-regroup equivalence under the spatiotemporal geometry: the
// dendrogram built from a timed shared index must answer every ε with
// exactly the clustering a fresh grouping run over the same index produces
// — the planar contract of dendro_test.go, carried through the temporal
// distance addend wT·gap.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/lsdist"
	"repro/internal/segclust"
	"repro/internal/synth"
)

func TestCutEquivalenceSpatiotemporal(t *testing.T) {
	// Three corridors, departures 500 s apart: the intervals actually gap,
	// so the temporal addend is live at every tested ε.
	trs := synth.TimedCorridorScene(3, 12, 24, 5, 7, 500, 10)
	ccfg := core.DefaultConfig()
	ccfg.Partition.CostAdvantage, ccfg.Partition.MinLength = 15, 40
	items, err := core.PartitionAllCtx(context.Background(), trs, ccfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) < 50 {
		t.Fatalf("scene too small: %d items", len(items))
	}

	const wt = 0.01
	opt := lsdist.Options{Weights: lsdist.DefaultWeights()}
	epsGrid := []float64{5, 12, 20, 28, 35, 45}
	const minLns = 4
	ctx := context.Background()

	for name, backend := range backends() {
		for _, workers := range []int{1, 0} {
			shared := segclust.NewSharedIndex(items, opt, wt, backend)
			d, err := FromShared(ctx, shared, 60, workers)
			if err != nil {
				t.Fatalf("%s/w%d: FromShared: %v", name, workers, err)
			}
			for _, eps := range epsGrid {
				got, err := d.CutAt(eps, minLns, 0)
				if err != nil {
					t.Fatalf("%s/w%d/eps=%g: CutAt: %v", name, workers, eps, err)
				}
				fresh := segclust.NewSharedIndex(items, opt, wt, backend)
				want, err := segclust.RunSharedCtx(ctx, fresh, segclust.Config{
					Eps: eps, MinLns: minLns, Options: opt, Workers: workers,
				}, nil)
				if err != nil {
					t.Fatalf("%s/w%d/eps=%g: RunSharedCtx: %v", name, workers, eps, err)
				}
				sameResult(t, fmt.Sprintf("st/%s/w%d/eps=%g", name, workers, eps), want, got)
			}
		}
	}
}

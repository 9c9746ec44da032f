package traclus_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/synth"

	traclus "repro"
)

// TestAutoBuildMatchesComposite: an auto build (WithEstimation) groups from
// its estimation dendrogram's lists instead of scoring the candidates again.
// It must still be the estimate-then-run composite, a fixed-ε build at the
// estimated parameters, bit for bit and DistCalls included: a Run, and a
// NewAppender followed by three appends, each epoch against the composite
// appender's, under the planar, spatiotemporal and geodesic geometry.
func TestAutoBuildMatchesComposite(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name   string
		trs    []traclus.Trajectory
		cfg    traclus.Config
		lo, hi float64
	}{
		{"planar", equivalenceWorkload(t, 90), traclus.Config{CostAdvantage: 15, MinSegmentLength: 40}, 5, 60},
		{"spatiotemporal", timedWorkload(t, 90), traclus.Config{CostAdvantage: 15, MinSegmentLength: 40,
			Geometry: traclus.SpatiotemporalGeometry(0.002)}, 5, 60},
		{"geodesic", synth.GPSTracks(3, 10, 25, 7), traclus.Config{MinSegmentLength: 100,
			Geometry: traclus.GeodesicGeometry()}, 20, 300},
	}
	for _, c := range cases {
		base, chunks := appendChunks(c.trs, len(c.trs)-8)
		auto := traclus.New(traclus.WithConfig(c.cfg), traclus.WithEstimation(c.lo, c.hi))
		est, err := auto.Estimate(ctx, base, c.lo, c.hi)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fixed := c.cfg
		fixed.Eps, fixed.MinLns = est.Eps, float64(est.MinLnsLo+est.MinLnsHi)/2
		composite := traclus.New(traclus.WithConfig(fixed))
		same := func(what string, got, want *traclus.Result) {
			t.Helper()
			if got.Estimated == nil || *got.Estimated != est {
				t.Errorf("%s %s: Estimated %+v, want %+v", c.name, what, got.Estimated, est)
			}
			if a, b := appendFingerprint(got), appendFingerprint(want); a != b {
				t.Errorf("%s %s: fingerprint %s (auto) vs %s (composite)", c.name, what, a, b)
			}
			if got.DistCalls() != want.DistCalls() {
				t.Errorf("%s %s: DistCalls %d (auto) vs %d (composite)", c.name, what, got.DistCalls(), want.DistCalls())
			}
		}

		got, err := auto.Run(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		want, err := composite.Run(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Clusters) == 0 {
			t.Fatalf("%s: the estimated parameters find no cluster", c.name)
		}
		same("Run", got, want)

		ap, err := auto.NewAppender(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		wap, err := composite.NewAppender(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		same("NewAppender", ap.Result(), wap.Result())
		for ci, chunk := range chunks {
			got, err := ap.Append(ctx, chunk)
			if err != nil {
				t.Fatal(err)
			}
			want, err := wap.Append(ctx, chunk)
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("append %d", ci), got, want)
		}
	}
}

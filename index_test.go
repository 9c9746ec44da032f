package traclus_test

// Cross-backend equivalence suite for the unified index subsystem
// (internal/spindex): every backend set through Config.Index must produce
// the identical clustering at every worker count. Also pins the
// single-build data flow of WithEstimation.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/spindex"

	traclus "repro"
)

var indexSuiteConfig = traclus.Config{
	Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40,
}

// TestBackendEquivalenceSuite: Grid ≡ RTree ≡ Brute, each set through
// Config.Index, at Workers {1, 4, all}. The zero-value default and the
// explicit grid must agree bit-for-bit (DistCalls included); across backends the
// clusterings must agree (DistCalls legitimately differ between pruned and
// exhaustive candidate generation).
func TestBackendEquivalenceSuite(t *testing.T) {
	trs := equivalenceWorkload(t, 120)
	backends := []traclus.IndexBackend{{}, traclus.GridIndexBackend(), traclus.RTreeIndexBackend(), traclus.BruteIndexBackend()}
	for _, workers := range []int{1, 4, 0} {
		var ref *traclus.Result
		for i, b := range backends {
			name := "default"
			if i > 0 {
				name = b.Name()
			}
			cfg := indexSuiteConfig
			cfg.Index = b
			cfg.Workers = workers
			res, err := run(trs, cfg)
			if err != nil {
				t.Fatalf("backend=%s workers=%d: %v", name, workers, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if b == traclus.GridIndexBackend() && ref.DistCalls() != res.DistCalls() {
				t.Errorf("workers=%d: DistCalls differ: default=%d grid=%d", workers, ref.DistCalls(), res.DistCalls())
			}
			if !reflect.DeepEqual(ref.Clusters, res.Clusters) {
				t.Errorf("workers=%d: backend %s clusters differ from the default", workers, name)
			}
			if ref.NoiseSegments != res.NoiseSegments || ref.RemovedClusters != res.RemovedClusters {
				t.Errorf("workers=%d: backend %s noise/removed (%d,%d) differ from (%d,%d)",
					workers, name, res.NoiseSegments, res.RemovedClusters,
					ref.NoiseSegments, ref.RemovedClusters)
			}
		}
	}
}

// TestWithEstimationMatchesSeparateEstimate: a WithEstimation run must
// reproduce the Estimate-then-Run composite bit-for-bit — same
// estimate, same clustering — while building exactly ONE index over the
// pooled segments where the composite builds two.
func TestWithEstimationMatchesSeparateEstimate(t *testing.T) {
	trs := equivalenceWorkload(t, 60)
	base := traclus.Config{CostAdvantage: 15, MinSegmentLength: 40}
	est, err := estimate(trs, 5, 60, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Eps = est.Eps
	cfg.MinLns = float64(est.MinLnsLo+est.MinLnsHi) / 2
	want, err := run(trs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	before := spindex.Builds()
	got, err := traclus.New(
		traclus.WithConfig(base),
		traclus.WithEstimation(5, 60),
	).Run(context.Background(), trs)
	if err != nil {
		t.Fatal(err)
	}
	if builds := spindex.Builds() - before; builds != 1 {
		t.Errorf("WithEstimation run built %d indexes over the segments, want 1 (shared by estimation and grouping)", builds)
	}
	if got.Estimated == nil {
		t.Fatal("Result.Estimated is nil on a WithEstimation run")
	}
	if *got.Estimated != est {
		t.Errorf("Result.Estimated = %+v, want %+v", *got.Estimated, est)
	}
	if !reflect.DeepEqual(want.Clusters, got.Clusters) {
		t.Error("WithEstimation clusters differ from the estimate-then-run composite")
	}
	if want.DistCalls() != got.DistCalls() {
		t.Errorf("grouping DistCalls differ: composite=%d shared=%d", want.DistCalls(), got.DistCalls())
	}
}

// TestWithEstimationProgressPhases: the estimate phase streams between
// partition and group, with the usual 0→1 monotone fractions.
func TestWithEstimationProgressPhases(t *testing.T) {
	trs := equivalenceWorkload(t, 30)
	var order []traclus.Phase
	var estEvents int
	lastFrac := -1.0
	_, err := traclus.New(
		traclus.WithConfig(traclus.Config{CostAdvantage: 15, MinSegmentLength: 40}),
		traclus.WithEstimation(5, 60),
		traclus.WithProgress(func(ev traclus.ProgressEvent) {
			if len(order) == 0 || order[len(order)-1] != ev.Phase {
				order = append(order, ev.Phase)
				lastFrac = -1
			}
			if ev.Fraction < lastFrac {
				t.Errorf("phase %v: fraction regressed %v -> %v", ev.Phase, lastFrac, ev.Fraction)
			}
			lastFrac = ev.Fraction
			if ev.Phase == traclus.PhaseEstimate {
				estEvents++
			}
		}),
	).Run(context.Background(), trs)
	if err != nil {
		t.Fatal(err)
	}
	want := []traclus.Phase{traclus.PhasePartition, traclus.PhaseEstimate, traclus.PhaseGroup, traclus.PhaseRepresent}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("phase order = %v, want %v", order, want)
	}
	if estEvents < 2 {
		t.Errorf("estimate phase emitted %d events, want at least begin+complete", estEvents)
	}
}

// TestWithEstimationValidation: estimation runs still reject malformed
// non-estimated fields with the typed error, and bad search bounds fail
// fast.
func TestWithEstimationValidation(t *testing.T) {
	trs := equivalenceWorkload(t, 20)
	_, err := traclus.New(
		traclus.WithConfig(traclus.Config{CostAdvantage: -1}),
		traclus.WithEstimation(5, 60),
	).Run(context.Background(), trs)
	var cerr *traclus.ConfigError
	if !errors.As(err, &cerr) {
		t.Fatalf("negative CostAdvantage under estimation: got %v, want *ConfigError", err)
	}
	_, err = traclus.New(
		traclus.WithConfig(traclus.Config{}),
		traclus.WithEstimation(60, 5),
	).Run(context.Background(), trs)
	if !errors.As(err, &cerr) {
		t.Fatalf("inverted estimation bounds: got %v, want *ConfigError", err)
	}

	// A hi the dendrogram cannot be built at, or that overflows the walk's
	// reflection through 2·hi, is rejected by Run and Estimate alike before
	// any index build.
	for _, hi := range []float64{math.Inf(1), math.NaN(), 1e308} {
		p := traclus.New(traclus.WithEstimation(5, hi))
		before := spindex.Builds()
		_, runErr := p.Run(context.Background(), trs)
		_, estErr := p.Estimate(context.Background(), trs, 5, hi)
		for what, err := range map[string]error{"WithEstimation run": runErr, "Estimate": estErr} {
			if !errors.As(err, &cerr) || cerr.Field != "Estimation" {
				t.Errorf("%s, hi = %v: got %v, want *ConfigError on Estimation", what, hi, err)
			}
		}
		if builds := spindex.Builds() - before; builds != 0 {
			t.Errorf("hi = %v: %d index builds before the range was rejected", hi, builds)
		}
	}
}

// TestParseIndexBackend covers the one name → backend table, its aliases,
// its typed error, and that every built-in backend's Name() resolves to
// itself.
func TestParseIndexBackend(t *testing.T) {
	for name, want := range map[string]traclus.IndexBackend{
		"grid": traclus.GridIndexBackend(), "rtree": traclus.RTreeIndexBackend(),
		"brute": traclus.BruteIndexBackend(), "scan": traclus.BruteIndexBackend(), "none": traclus.BruteIndexBackend(),
		"GRID": traclus.GridIndexBackend(), " rtree ": traclus.RTreeIndexBackend(),
	} {
		got, err := traclus.ParseIndexBackend(name)
		if err != nil || got != want {
			t.Errorf("ParseIndexBackend(%q) = %v, %v; want %s", name, got, err, want.Name())
		}
		if got, err := traclus.ParseIndexBackend(want.Name()); err != nil || got != want {
			t.Errorf("ParseIndexBackend(%q) = %v, %v; want the backend itself", want.Name(), got, err)
		}
	}
	_, err := traclus.ParseIndexBackend("kdtree")
	var cerr *traclus.ConfigError
	if !errors.As(err, &cerr) {
		t.Fatalf("ParseIndexBackend(kdtree) error = %v, want *ConfigError", err)
	}
}

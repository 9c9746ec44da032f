package traclus_test

// Tests for the composable Pipeline API: prompt cooperative cancellation on
// a large synthetic input, the progress hook's ordering contract, and the
// estimation-path validation fix.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/synth"

	traclus "repro"
)

// TestPipelineRunCancelledBeforeStart pins the fast path: a context that is
// already done yields ctx.Err() without touching the input.
func TestPipelineRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := traclus.New(traclus.WithConfig(traclus.Config{Eps: 30, MinLns: 6}))
	res, err := p.Run(ctx, equivalenceWorkload(t, 4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled Run returned a partial result")
	}
}

// TestPipelineRunPromptCancellation is the acceptance criterion: on the
// large synthetic bench input, cancelling mid-run returns ctx.Err() within
// one scheduling quantum (bounded here by a generous wall-clock budget that
// is still far below the full run time), at every worker count.
func TestPipelineRunPromptCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("large input")
	}
	scfg := synth.DefaultHurricaneConfig()
	scfg.NumTracks = 1500 // the BenchmarkRunParallel scale: many seconds of work
	trs := synth.Hurricanes(scfg)
	for _, workers := range []int{1, 0} {
		p := traclus.New(traclus.WithConfig(traclus.Config{Eps: 30, MinLns: 6, Workers: workers}))
		ctx, cancel := context.WithCancel(context.Background())
		type outcome struct {
			res *traclus.Result
			err error
		}
		done := make(chan outcome, 1)
		start := time.Now()
		go func() {
			res, err := p.Run(ctx, trs)
			done <- outcome{res, err}
		}()
		time.Sleep(50 * time.Millisecond)
		cancel()
		select {
		case o := <-done:
			if !errors.Is(o.err, context.Canceled) {
				// The run may legitimately have finished before the cancel
				// on a fast machine — but then it must have taken < 50ms,
				// which this input cannot.
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, o.err)
			}
			if o.res != nil {
				t.Fatalf("workers=%d: cancelled Run returned a result", workers)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("workers=%d: cancellation took %v", workers, elapsed)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: Run did not return after cancellation", workers)
		}
	}
}

// TestPipelineProgressOrdering pins the progress contract: phases arrive in
// pipeline order, fractions are non-decreasing within a phase, every phase
// opens at 0 and closes with exactly one Fraction-1 event, and Done never
// exceeds Total. The hook is guaranteed serialized, so the plain slice
// append needs no locking.
func TestPipelineProgressOrdering(t *testing.T) {
	trs := equivalenceWorkload(t, 80)
	for _, workers := range []int{1, 4} {
		var events []traclus.ProgressEvent
		p := traclus.New(
			traclus.WithConfig(traclus.Config{Eps: 30, MinLns: 6, Workers: workers}),
			traclus.WithProgress(func(ev traclus.ProgressEvent) { events = append(events, ev) }),
		)
		if _, err := p.Run(context.Background(), trs); err != nil {
			t.Fatal(err)
		}
		if len(events) < 6 {
			t.Fatalf("workers=%d: only %d events; want at least begin+end per phase", workers, len(events))
		}
		wantPhases := []traclus.Phase{traclus.PhasePartition, traclus.PhaseGroup, traclus.PhaseRepresent}
		phaseIdx := 0
		closes := map[traclus.Phase]int{}
		for i, ev := range events {
			for phaseIdx < len(wantPhases) && ev.Phase != wantPhases[phaseIdx] {
				phaseIdx++
			}
			if phaseIdx == len(wantPhases) {
				t.Fatalf("workers=%d: event %d: phase %v out of order", workers, i, ev.Phase)
			}
			if ev.Fraction < 0 || ev.Fraction > 1 {
				t.Errorf("workers=%d: event %d: fraction %v out of range", workers, i, ev.Fraction)
			}
			if ev.Total > 0 && ev.Done > ev.Total {
				t.Errorf("workers=%d: event %d: done %d > total %d", workers, i, ev.Done, ev.Total)
			}
			if i > 0 && events[i-1].Phase == ev.Phase && ev.Fraction < events[i-1].Fraction {
				t.Errorf("workers=%d: event %d: fraction regressed %v -> %v",
					workers, i, events[i-1].Fraction, ev.Fraction)
			}
			if ev.Fraction == 1 {
				closes[ev.Phase]++
			}
		}
		for _, ph := range wantPhases {
			first := -1
			for i, ev := range events {
				if ev.Phase == ph {
					first = i
					break
				}
			}
			if first == -1 {
				t.Fatalf("workers=%d: phase %v emitted no events", workers, ph)
			}
			if events[first].Fraction != 0 {
				t.Errorf("workers=%d: phase %v opened at fraction %v, want 0", workers, ph, events[first].Fraction)
			}
			if closes[ph] != 1 {
				t.Errorf("workers=%d: phase %v closed %d times, want exactly 1", workers, ph, closes[ph])
			}
		}
	}
}

// TestPipelineEstimateMatchesEstimateParameters pins Estimate's
// cancellation: a done context stops the search and returns ctx.Err().
func TestPipelineEstimateMatchesEstimateParameters(t *testing.T) {
	trs := equivalenceWorkload(t, 60)
	cfg := traclus.Config{CostAdvantage: 15, MinSegmentLength: 40, Workers: 4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := traclus.New(traclus.WithConfig(cfg)).Estimate(ctx, trs, 5, 60); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Estimate: err = %v, want context.Canceled", err)
	}
}

// TestEstimateParametersValidatesConfig pins the satellite fix: NaN/Inf
// weights and a negative CostAdvantage must be rejected with the typed
// ConfigError before the annealing pass, while zero Eps/MinLns (the fields
// estimation exists to find) stay legal.
func TestEstimateParametersValidatesConfig(t *testing.T) {
	trs := equivalenceWorkload(t, 10)
	bad := []traclus.Config{
		{Weights: traclus.Weights{Perpendicular: math.NaN(), Parallel: 1, Angle: 1}},
		{Weights: traclus.Weights{Perpendicular: math.Inf(1), Parallel: 1, Angle: 1}},
		{CostAdvantage: -3},
		{MinSegmentLength: math.NaN()},
		{MinTrajs: -1},
		{Gamma: -2},
	}
	for i, cfg := range bad {
		_, err := estimate(trs, 5, 60, cfg)
		var ce *traclus.ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("case %d (%+v): err = %v, want *ConfigError", i, cfg, err)
		}
	}
	// The legal baseline: zero Eps/MinLns plus sane extras estimates fine.
	if _, err := estimate(trs, 5, 60, traclus.Config{CostAdvantage: 15}); err != nil {
		t.Errorf("valid estimation config rejected: %v", err)
	}
}

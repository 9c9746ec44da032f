package traclus_test

// Serial-vs-parallel equivalence: the tentpole guarantee of the concurrent
// pipeline is that Workers is a throughput knob, never a semantics knob.
// These tests pin that down end-to-end — identical cluster membership,
// representatives (bit-for-bit), noise and removal counts — across worker
// counts and index strategies.

import (
	"reflect"
	"testing"

	"repro/internal/synth"

	traclus "repro"
)

func equivalenceWorkload(t testing.TB, tracks int) []traclus.Trajectory {
	t.Helper()
	cfg := synth.DefaultHurricaneConfig()
	cfg.NumTracks = tracks
	return synth.Hurricanes(cfg)
}

func TestRunWorkersEquivalence(t *testing.T) {
	trs := equivalenceWorkload(t, 120)
	for _, index := range []traclus.IndexBackend{traclus.GridIndexBackend(), traclus.RTreeIndexBackend(), traclus.BruteIndexBackend()} {
		cfg := traclus.Config{
			Eps: 30, MinLns: 6,
			CostAdvantage:    15,
			MinSegmentLength: 40,
			Index:            index,
			Workers:          1,
		}
		serial, err := run(trs, cfg)
		if err != nil {
			t.Fatalf("index=%v serial: %v", index.Name(), err)
		}
		for _, workers := range []int{2, 3, 4, 8, 0} {
			cfg.Workers = workers
			parallel, err := run(trs, cfg)
			if err != nil {
				t.Fatalf("index=%v workers=%d: %v", index.Name(), workers, err)
			}
			if !reflect.DeepEqual(serial.Clusters, parallel.Clusters) {
				t.Errorf("index=%v workers=%d: clusters differ from serial", index.Name(), workers)
			}
			if serial.NoiseSegments != parallel.NoiseSegments ||
				serial.TotalSegments != parallel.TotalSegments ||
				serial.RemovedClusters != parallel.RemovedClusters {
				t.Errorf("index=%v workers=%d: counts differ: serial=(%d,%d,%d) parallel=(%d,%d,%d)",
					index.Name(), workers,
					serial.NoiseSegments, serial.TotalSegments, serial.RemovedClusters,
					parallel.NoiseSegments, parallel.TotalSegments, parallel.RemovedClusters)
			}
		}
	}
}

// TestRunWorkersEquivalenceUndirected exercises the equivalence on the
// undirected-distance variant, whose neighborhoods differ from the directed
// default.
func TestRunWorkersEquivalenceUndirected(t *testing.T) {
	trs := equivalenceWorkload(t, 60)
	cfg := traclus.Config{Eps: 30, MinLns: 6, Undirected: true, Workers: 1}
	serial, err := run(trs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	parallel, err := run(trs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Clusters, parallel.Clusters) {
		t.Error("undirected: parallel clusters differ from serial")
	}
}

// TestEstimateParametersWorkersEquivalence pins the Section 4.4 heuristic:
// the annealing search is seeded deterministically and every ε evaluation
// uses the same parallel neighborhood pass, so the estimate must not depend
// on the worker count.
func TestEstimateParametersWorkersEquivalence(t *testing.T) {
	trs := equivalenceWorkload(t, 60)
	base := traclus.Config{CostAdvantage: 15, MinSegmentLength: 40, Workers: 1}
	serial, err := estimate(trs, 5, 60, base)
	if err != nil {
		t.Fatal(err)
	}
	base.Workers = 4
	parallel, err := estimate(trs, 5, 60, base)
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Errorf("estimate depends on workers: serial=%+v parallel=%+v", serial, parallel)
	}
}

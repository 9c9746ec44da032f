package traclus_test

// End-to-end pin of the columnar-kernel refactor's bit-identity contract:
// the full pipeline result — every cluster's segments, trajectory sets, and
// representative points, plus the noise/removed counters and the exact
// distance-call budget — is hashed coordinate-bit by coordinate-bit and
// compared against fingerprints captured from the pre-kernel scalar
// implementation on the same fixed workload. Any reordering, reassociation,
// or dropped guard in the batched distance path changes at least one
// float64 bit somewhere in this digest and fails the pin, at every worker
// count and on every index backend.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	traclus "repro"
)

// resultFingerprint digests a Result into a short hex string over the exact
// bits of every geometric output and the exact values of every counter.
func resultFingerprint(r *traclus.Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	put(uint64(len(r.Clusters)))
	for _, c := range r.Clusters {
		put(uint64(len(c.Segments)))
		for _, s := range c.Segments {
			putF(s.Start.X)
			putF(s.Start.Y)
			putF(s.End.X)
			putF(s.End.Y)
		}
		put(uint64(len(c.Trajectories)))
		for _, id := range c.Trajectories {
			put(uint64(id))
		}
		put(uint64(len(c.Representative)))
		for _, p := range c.Representative {
			putF(p.X)
			putF(p.Y)
		}
	}
	put(uint64(r.NoiseSegments))
	put(uint64(r.TotalSegments))
	put(uint64(r.RemovedClusters))
	put(uint64(r.DistCalls()))
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestKernelPathBitIdenticalToScalar pins the pipeline output against
// fingerprints captured from the scalar (pre-kernel) implementation on the
// fixed 120-track corridor workload. The pruned backends share one
// fingerprint and distance budget; the brute backend scores every pair and
// pins its own. Neither may vary with the worker count.
func TestKernelPathBitIdenticalToScalar(t *testing.T) {
	want := map[traclus.IndexBackend]struct {
		distCalls int
		fp        string
	}{
		traclus.GridIndexBackend():  {distCalls: 32212, fp: "233c95f6e4469fc5"},
		traclus.RTreeIndexBackend(): {distCalls: 32212, fp: "233c95f6e4469fc5"},
		traclus.BruteIndexBackend(): {distCalls: 65536, fp: "852bec3b28ec583e"},
	}
	trs := equivalenceWorkload(t, 120)
	for kind, exp := range want {
		for _, workers := range []int{1, 2, 4, 0} {
			cfg := traclus.Config{
				Eps: 30, MinLns: 6,
				CostAdvantage:    15,
				MinSegmentLength: 40,
				Index:            kind,
				Workers:          workers,
			}
			res, err := run(trs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.DistCalls(); got != exp.distCalls {
				t.Errorf("index=%v workers=%d: %d distance calls, scalar path spent %d",
					kind.Name(), workers, got, exp.distCalls)
			}
			if got := resultFingerprint(res); got != exp.fp {
				t.Errorf("index=%v workers=%d: result fingerprint %s differs from scalar baseline %s",
					kind.Name(), workers, got, exp.fp)
			}
		}
	}
}

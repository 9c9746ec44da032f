package traclus_test

// FuzzAppendOrderings: the append path must be schedule-oblivious — any
// permutation of the incoming trajectories, split into any sequence of
// append batches, lands on exactly the clustering a from-scratch batch
// build produces over the same ordered data. The fuzzer drives both the
// permutation and the batch boundaries from raw bytes.

import (
	"context"
	"testing"

	traclus "repro"
)

func FuzzAppendOrderings(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x80, 0x01, 0x40, 0xfe, 0x00, 0x7f, 0xaa, 0x55})
	f.Add([]byte("interleave the appends"))

	f.Fuzz(func(t *testing.T, data []byte) {
		trs := equivalenceWorkload(t, 48)
		const base = 30
		extra := trs[base:]
		cfg := traclus.Config{Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40}

		// Fisher–Yates over the tail, driven by the fuzz bytes: byte i swaps
		// position i with i - (b mod (i+1)). Exhausted bytes leave the rest
		// in place, so the empty input is the identity permutation.
		perm := make([]traclus.Trajectory, len(extra))
		copy(perm, extra)
		for i := len(perm) - 1; i > 0; i-- {
			var b byte
			if len(data) > 0 {
				b, data = data[0], data[1:]
			}
			j := i - int(b)%(i+1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		// Remaining bytes cut the permuted tail into append batches: each
		// byte takes (b mod 5)+1 trajectories; leftovers land in one batch.
		var batches [][]traclus.Trajectory
		rest := perm
		for len(rest) > 0 && len(data) > 0 {
			n := int(data[0])%5 + 1
			data = data[1:]
			if n > len(rest) {
				n = len(rest)
			}
			batches = append(batches, rest[:n])
			rest = rest[n:]
		}
		if len(rest) > 0 {
			batches = append(batches, rest)
		}

		ctx := context.Background()
		ap, err := traclus.New(traclus.WithConfig(cfg)).NewAppender(ctx, trs[:base])
		if err != nil {
			t.Fatal(err)
		}
		var got *traclus.Result
		for _, b := range batches {
			if got, err = ap.Append(ctx, b); err != nil {
				t.Fatal(err)
			}
		}
		if got == nil {
			got = ap.Result()
		}

		// Ground truth: one batch build over the same ordered data. Cluster
		// numbering depends on item order, so the comparison must use the
		// permuted order, not the original.
		concat := append(append([]traclus.Trajectory{}, trs[:base]...), perm...)
		want, err := run(concat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := appendFingerprint(got), appendFingerprint(want); g != w {
			t.Fatalf("append schedule (%d batches) diverged from batch build:\nappend: %s\nbatch:  %s",
				len(batches), g, w)
		}
	})
}

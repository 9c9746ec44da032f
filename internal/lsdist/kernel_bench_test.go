package lsdist

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/segpool"
)

// benchSegs is the shared microbenchmark fixture: one query against a block
// of candidates, the exact shape of an ε-neighborhood refinement.
func benchSegs(n int) (geom.Segment, []geom.Segment) {
	rng := rand.New(rand.NewSource(1))
	segs := make([]geom.Segment, n)
	for i := range segs {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		segs[i] = geom.Seg(x, y, x+rng.NormFloat64()*40, y+rng.NormFloat64()*40)
	}
	return geom.Seg(500, 500, 540, 520), segs
}

const benchBlock = 1024

// BenchmarkDistScalar is the pre-kernel baseline: the closure-per-pair
// scalar path over the same block the kernel scores in one call.
func BenchmarkDistScalar(b *testing.B) {
	q, segs := benchSegs(benchBlock)
	dist := New(DefaultOptions())
	out := make([]float64, len(segs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, s := range segs {
			out[j] = dist(q, s)
		}
	}
	sinkF = out[0]
}

// BenchmarkDistKernelBlock scores the identical block through the columnar
// batch kernel: same bits out, no per-pair dispatch, precomputed invariants.
func BenchmarkDistKernelBlock(b *testing.B) {
	q, segs := benchSegs(benchBlock)
	pool, err := segpool.New(segs)
	if err != nil {
		b.Fatal(err)
	}
	qv, _ := segpool.ViewOf(q)
	k := NewKernel(DefaultOptions())
	ids := make([]int, len(segs))
	for i := range ids {
		ids[i] = i
	}
	var out []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = k.DistBlock(pool, qv, ids, math.Inf(1), out)
	}
	sinkF = out[0]
}

// BenchmarkDistKernelBlockBounded scores the same block against a bound
// that about 90% of the pairs exceed — the shape of an ε-range refinement,
// where most candidates lie outside ε. The bound is the 10th percentile of
// the block's exact distances, so most pairs stop after d⊥ or d∥.
func BenchmarkDistKernelBlockBounded(b *testing.B) {
	q, segs := benchSegs(benchBlock)
	pool, err := segpool.New(segs)
	if err != nil {
		b.Fatal(err)
	}
	qv, _ := segpool.ViewOf(q)
	k := NewKernel(DefaultOptions())
	ids := make([]int, len(segs))
	for i := range ids {
		ids[i] = i
	}
	exact := k.DistBlock(pool, qv, ids, math.Inf(1), nil)
	sorted := append([]float64(nil), exact...)
	sort.Float64s(sorted)
	bound := sorted[len(sorted)/10]
	out := make([]float64, 0, len(ids))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = k.DistBlock(pool, qv, ids, bound, out)
	}
	b.StopTimer()
	accepted := 0
	for _, d := range out {
		if d <= bound {
			accepted++
		}
	}
	b.ReportMetric(float64(accepted)/float64(len(out)), "accepted/pair")
	sinkF = out[0]
}

// BenchmarkDistKernelRange is the gather-free variant exhaustive scans use.
func BenchmarkDistKernelRange(b *testing.B) {
	q, segs := benchSegs(benchBlock)
	pool, err := segpool.New(segs)
	if err != nil {
		b.Fatal(err)
	}
	qv, _ := segpool.ViewOf(q)
	k := NewKernel(DefaultOptions())
	var out []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = k.DistRange(pool, qv, 0, pool.Len(), out)
	}
	sinkF = out[0]
}

// sinkF defeats dead-code elimination of the benchmark loops.
var sinkF float64

package quality

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// oracle sums xs exactly as big.Rat values and rounds once through
// big.Rat.Float64 — a rounding path independent of the accumulator's
// big.Float readout — with NaN and +Inf combined as float64 arithmetic
// combines them.
func oracle(xs []float64) float64 {
	var nan, inf bool
	sum := new(big.Rat)
	for _, x := range xs {
		switch {
		case math.IsNaN(x):
			nan = true
		case math.IsInf(x, 1):
			inf = true
		default:
			sum.Add(sum, new(big.Rat).SetFloat64(x))
		}
	}
	switch {
	case nan:
		return math.NaN()
	case inf:
		return math.Inf(1)
	}
	f, _ := sum.Float64()
	return f
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func accOf(xs []float64) *acc {
	var a acc
	for _, x := range xs {
		a.add(x)
	}
	return &a
}

// randFloat draws a non-negative value from every binade: exponents
// uniform over the normal range, plus subnormals, zero and the extremes.
func randFloat(rng *rand.Rand) float64 {
	var x float64
	switch rng.Intn(16) {
	case 0:
		x = math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
	case 1:
		x = math.MaxFloat64
	case 2:
		x = math.SmallestNonzeroFloat64
	case 3:
		x = 0
	default:
		x = math.Ldexp(1+rng.Float64(), rng.Intn(2046)-1022)
	}
	return x
}

func TestAccMatchesBigOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			xs[i] = randFloat(rng)
			if trial%4 == 0 {
				// Cluster the exponents so that values really interact
				// instead of the largest one swamping the rest.
				xs[i] = math.Ldexp(1+rng.Float64(), rng.Intn(120)-60)
			}
		}
		if got, want := accOf(xs).float(), oracle(xs); !sameFloat(got, want) {
			t.Fatalf("trial %d: acc %v (%x), oracle %v (%x) over %v",
				trial, got, math.Float64bits(got), want, math.Float64bits(want), xs)
		}
	}
}

func TestAccEdgeCases(t *testing.T) {
	max, tiny := math.MaxFloat64, math.SmallestNonzeroFloat64
	ulpHalf := math.Ldexp(1, 970) // half an ulp of MaxFloat64
	cases := []struct {
		name     string
		add, sub []float64
		want     float64
	}{
		{"empty", nil, nil, 0},
		{"smallest subnormal", []float64{tiny}, nil, tiny},
		{"subnormal sum crosses into normals", []float64{math.Float64frombits(1<<52 - 1), tiny}, nil, math.Float64frombits(1 << 52)},
		{"huge cancels, tiny survives", []float64{max, tiny}, []float64{max}, tiny},
		{"one rounding, not two", []float64{1, math.Ldexp(1, -53), math.Ldexp(1, -53)}, nil, 1 + math.Ldexp(1, -52)},
		{"tie to even rounds down", []float64{1, math.Ldexp(1, -53)}, nil, 1},
		{"tie to even rounds up", []float64{1 + math.Ldexp(1, -52), math.Ldexp(1, -53)}, nil, 1 + math.Ldexp(1, -51)},
		{"below half an ulp stays finite", []float64{max, math.Ldexp(1, 969)}, nil, max},
		{"half an ulp overflows (tie to even)", []float64{max, ulpHalf}, nil, math.Inf(1)},
		{"overflow", []float64{max, max}, nil, math.Inf(1)},
		{"overflowed sum comes back", []float64{max, max}, []float64{max}, max},
		{"NaN", []float64{1, math.NaN(), 2}, nil, math.NaN()},
		{"+Inf", []float64{1, math.Inf(1)}, nil, math.Inf(1)},
		{"NaN wins over +Inf", []float64{math.Inf(1), math.NaN()}, nil, math.NaN()},
		{"removed +Inf", []float64{1, math.Inf(1)}, []float64{math.Inf(1)}, 1},
		{"sign bit counts as NaN", []float64{1, math.Copysign(0, -1)}, nil, math.NaN()},
	}
	for _, c := range cases {
		a := accOf(c.add)
		for _, x := range c.sub {
			a.sub(x)
		}
		if got := a.float(); !sameFloat(got, c.want) {
			t.Errorf("%s: got %v (%x), want %v (%x)", c.name, got, math.Float64bits(got), c.want, math.Float64bits(c.want))
		}
	}
}

// TestAccLongCarries adds one value many times so that carries ripple
// across word boundaries, at the bottom and the top of the range.
func TestAccLongCarries(t *testing.T) {
	for _, x := range []float64{math.SmallestNonzeroFloat64, math.Ldexp(1, -1011), 0.1, math.MaxFloat64 / (1 << 20)} {
		const n = 1 << 16
		var a acc
		for i := 0; i < n; i++ {
			a.add(x)
		}
		want, _ := new(big.Rat).Mul(new(big.Rat).SetFloat64(x), big.NewRat(n, 1)).Float64()
		if got := a.float(); !sameFloat(got, want) {
			t.Errorf("%d × %v: got %v, want %v", n, x, got, want)
		}
		for i := 0; i < n; i++ {
			a.sub(x)
		}
		if a != (acc{}) {
			t.Errorf("%d × %v added then subtracted: state not zero", n, x)
		}
	}
}

func TestAccAddSubRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		var a acc
		for i := rng.Intn(20); i > 0; i-- {
			a.add(randFloat(rng))
		}
		before := a
		xs := make([]float64, 1+rng.Intn(30))
		for i := range xs {
			xs[i] = randFloat(rng)
			switch rng.Intn(20) {
			case 0:
				xs[i] = math.NaN()
			case 1:
				xs[i] = math.Inf(1)
			}
			a.add(xs[i])
		}
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		for _, x := range xs {
			a.sub(x)
		}
		if a != before {
			t.Fatalf("trial %d: add then sub of %v did not restore the state", trial, xs)
		}
	}
}

// TestAccMergeIsOrderFree: values spread over several accumulators, some
// of them added to one and subtracted from another (so a part can hold a
// negative delta, as a worker's does), merge to exactly one accumulator
// over the values.
func TestAccMergeIsOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		xs := make([]float64, 1+rng.Intn(60))
		var parts [3]acc
		for i := range xs {
			xs[i] = randFloat(rng)
			parts[rng.Intn(len(parts))].add(xs[i])
			if rng.Intn(4) == 0 {
				y := randFloat(rng)
				parts[rng.Intn(len(parts))].add(y)
				parts[rng.Intn(len(parts))].sub(y)
			}
		}
		var merged acc
		for _, p := range rng.Perm(len(parts)) {
			merged.merge(&parts[p])
		}
		if whole := accOf(xs); merged != *whole {
			t.Fatalf("trial %d: merged parts differ from one accumulator over %v", trial, xs)
		}
		if got, want := merged.float(), oracle(xs); !sameFloat(got, want) {
			t.Fatalf("trial %d: merged %v, oracle %v", trial, got, want)
		}
	}
}

package mdl

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/synth"
)

// figure8 is the paper's Figure 8, literally: at every step it scores
// MDLPar and MDLNoPar over the whole current partition and partitions when
// costpar > costnopar + CostAdvantage. ApproximatePartition must return
// exactly its characteristic points. The one departure is that a step of
// length 1 never partitions: there the partition point is the start point,
// and the literal loop would repeat the step forever (see
// TestApproximatePartitionLengthOneStep); every run of the literal loop
// that ends agrees with this one.
func figure8(pts []geom.Point, cfg Config) []int {
	n := len(pts)
	if n <= 2 {
		var cps []int
		for i := 0; i < n; i++ {
			cps = append(cps, i)
		}
		return cps
	}
	cps := []int{0}
	startIndex, length := 0, 1
	for startIndex+length < n {
		currIndex := startIndex + length
		costPar := MDLPar(pts, startIndex, currIndex)
		costNoPar := MDLNoPar(pts, startIndex, currIndex)
		if length > 1 && costPar > costNoPar+cfg.CostAdvantage {
			cps = append(cps, currIndex-1)
			startIndex = currIndex - 1
			length = 1
		} else {
			length++
		}
	}
	if cps[len(cps)-1] != n-1 {
		cps = append(cps, n-1)
	}
	return cps
}

// scalarMDLPar is MDLPar through the scalar Definitions 1 and 3, the
// reference for the kernel's d⊥ and dθ.
func scalarMDLPar(pts []geom.Point, i, j int) float64 {
	part := geom.Segment{Start: pts[i], End: pts[j]}
	cost := L(part.Length())
	for k := i; k < j; k++ {
		inner := geom.Segment{Start: pts[k], End: pts[k+1]}
		dp, _, da := lsdist.Components(part, inner)
		cost += L(dp) + L(da)
	}
	return cost
}

// sameCost reports whether two costs are the same bits, or both NaN (NaN
// payloads are not part of the kernel's contract, and every NaN compares
// false in the partition test).
func sameCost(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkOracle fails t unless ApproximatePartition and a reused Partitioner
// both return figure8's characteristic points for pts.
func checkOracle(t *testing.T, p *Partitioner, pts []geom.Point, cfg Config) {
	t.Helper()
	want := figure8(pts, cfg)
	if got := ApproximatePartition(pts, cfg); !slices.Equal(got, want) {
		t.Fatalf("CostAdvantage %v: ApproximatePartition = %v, Figure 8 = %v (points %v)", cfg.CostAdvantage, got, want, pts)
	}
	if got := p.characteristic(pts); !slices.Equal(got, want) {
		t.Fatalf("CostAdvantage %v: reused Partitioner = %v, Figure 8 = %v (points %v)", cfg.CostAdvantage, got, want, pts)
	}
}

// TestPartitionOracleOverflowTail is the case that makes the early exit's
// coordinate bound necessary. Along the straight run the partial MDLPar of
// the partition (0,0)→(0,1e200) passes the limit, but the last inner
// segment's squared length overflows, its projection parameter is Inf/Inf,
// and the full sum is NaN: Figure 8 does not partition there. An exit on
// the partial sum alone would return [0 10 11].
func TestPartitionOracleOverflowTail(t *testing.T) {
	var pts []geom.Point
	for i := 0; i <= 10; i++ {
		pts = append(pts, geom.Pt(float64(100*i), 0))
	}
	pts = append(pts, geom.Pt(0, 1e200))
	if c := MDLPar(pts, 0, 11); !math.IsNaN(c) {
		t.Fatalf("MDLPar(0, 11) = %v, want NaN", c)
	}
	for _, ca := range []float64{0, 15} {
		cfg := Config{CostAdvantage: ca}
		if want := figure8(pts, cfg); !slices.Equal(want, []int{0, 11}) {
			t.Fatalf("CostAdvantage %v: Figure 8 = %v, want [0 11]", ca, want)
		}
		checkOracle(t, NewPartitioner(cfg), pts, cfg)
	}
}

// TestApproximatePartitionLengthOneStep pins the two ways a step of
// length 1 can pass Figure 8's partition test, where the literal loop
// partitions at its own start point forever: a negative CostAdvantage, and
// a segment about 1.7e8 long whose cosine with itself rounds below 1, so
// that MDLPar(0, 1) exceeds MDLNoPar(0, 1). Both must end, with the points
// a run that extends past the step finds.
func TestApproximatePartitionLengthOneStep(t *testing.T) {
	long := []geom.Point{
		geom.Pt(424.63749707126567, 686.8230728671094),
		geom.Pt(6.563701921747622e+07, 1.5651925473279124e+08),
		geom.Pt(6.563701921747622e+07, 1.5651925473279124e+08+100),
	}
	if MDLPar(long, 0, 1) <= MDLNoPar(long, 0, 1) {
		t.Fatalf("MDLPar(0, 1) = %v ≤ MDLNoPar(0, 1) = %v: the case no longer passes the test at length 1", MDLPar(long, 0, 1), MDLNoPar(long, 0, 1))
	}
	if got := ApproximatePartition(long, Config{}); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("long segment: ApproximatePartition = %v, want [0 1 2]", got)
	}
	zigzag := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(20, 0), geom.Pt(30, 5)}
	if got := ApproximatePartition(zigzag, Config{CostAdvantage: -100}); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Errorf("CostAdvantage −100: ApproximatePartition = %v, want every point", got)
	}
}

// TestPartitionOracleHurricanes checks the characteristic points of every
// track of the benchmark's build-fixed input (1200 synthetic hurricanes,
// seed 1, deduplicated as Partitioner.Partition does) against Figure 8 at
// the CostAdvantage values in use.
func TestPartitionOracleHurricanes(t *testing.T) {
	hc := synth.DefaultHurricaneConfig()
	hc.NumTracks, hc.Seed = 1200, 1
	trs := synth.Hurricanes(hc)
	for _, ca := range []float64{0, 1, 5, 15} {
		cfg := Config{CostAdvantage: ca}
		p := NewPartitioner(cfg)
		for _, tr := range trs {
			checkOracle(t, p, tr.Dedup().Points, cfg)
		}
	}
}

// decodePoints turns fuzz bytes into a point list, three bytes a point:
// int8 x and y on a small grid, so repeated points, collinear runs,
// zero-length steps and U-turns are common, and a flag byte. Bit 0 scales
// the point by 2^far instead of 2^base, so one list can mix magnitudes;
// bit 1 makes x non-finite (±Inf by the sign of the grid value, NaN at 0).
// The exponents are clamped so that finite coordinates reach ±MaxFloat64
// but never overflow.
func decodePoints(data []byte, base, far int16) []geom.Point {
	clamp := func(e int16) int { return max(-1080, min(int(e), 1016)) }
	eb, ef := clamp(base), clamp(far)
	var pts []geom.Point
	for i := 0; i+2 < len(data) && len(pts) < 64; i += 3 {
		x, y, flag := int8(data[i]), int8(data[i+1]), data[i+2]
		e := eb
		if flag&1 != 0 {
			e = ef
		}
		p := geom.Pt(math.Ldexp(float64(x), e), math.Ldexp(float64(y), e))
		if flag&2 != 0 {
			switch {
			case x > 0:
				p.X = math.Inf(1)
			case x < 0:
				p.X = math.Inf(-1)
			default:
				p.X = math.NaN()
			}
		}
		pts = append(pts, p)
	}
	return pts
}

// encodePoints is decodePoints' inverse for seed inputs: grid points at one
// scale, with the far flag set on the indices in far.
func encodePoints(grid [][2]int8, far ...int) []byte {
	var b []byte
	for i, g := range grid {
		var flag byte
		if slices.Contains(far, i) {
			flag = 1
		}
		b = append(b, byte(g[0]), byte(g[1]), flag)
	}
	return b
}

// FuzzPartitionOracle checks that ApproximatePartition returns exactly the
// characteristic points of the literal Figure-8 loop over MDLPar and
// MDLNoPar, for any points and any CostAdvantage bits, and that MDLPar
// through the kernel matches the scalar Definitions 1 and 3.
func FuzzPartitionOracle(f *testing.F) {
	line := func(n int) [][2]int8 {
		var g [][2]int8
		for i := 0; i < n; i++ {
			g = append(g, [2]int8{int8(i), 0})
		}
		return g
	}
	uturn := [][2]int8{{0, 0}, {10, 0}, {20, 0}, {30, 1}, {20, 2}, {10, 2}, {0, 2}, {1, 2}}
	repeats := [][2]int8{{0, 0}, {0, 0}, {5, 5}, {5, 5}, {5, 5}, {9, 1}, {9, 1}, {-4, 7}, {0, 0}}
	zigzag := [][2]int8{{0, 0}, {3, 4}, {6, 0}, {9, 4}, {12, 0}, {12, 0}, {15, 4}, {-128, 127}, {127, -128}}
	// A straight run and then a point far beyond safeCoord: the overflow
	// tail of TestPartitionOracleOverflowTail on the fuzz grid.
	tail := append(line(11), [2]int8{0, 1})
	for _, ca := range []float64{0, 1, 15, -3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(encodePoints(line(12)), int16(0), int16(0), ca)
		f.Add(encodePoints(uturn), int16(3), int16(3), ca)
		f.Add(encodePoints(repeats), int16(-1074), int16(0), ca)
		f.Add(encodePoints(zigzag), int16(249), int16(260), ca)
		f.Add(encodePoints(tail, len(tail)-1), int16(6), int16(664), ca)
		f.Add(encodePoints(zigzag, 1, 3), int16(0), int16(1016), ca)
		// Bit 1: +Inf, then NaN, x coordinates.
		f.Add([]byte{0, 0, 0, 5, 0, 2, 10, 0, 0, 0, 1, 2, 20, 3, 0}, int16(0), int16(0), ca)
	}
	f.Fuzz(func(t *testing.T, data []byte, base, far int16, ca float64) {
		pts := decodePoints(data, base, far)
		cfg := Config{CostAdvantage: ca}
		checkOracle(t, NewPartitioner(cfg), pts, cfg)
		if n := len(pts); n >= 2 {
			if got, want := MDLPar(pts, 0, n-1), scalarMDLPar(pts, 0, n-1); !sameCost(got, want) {
				t.Fatalf("MDLPar = %v (%016x), scalar %v (%016x) for %v", got, math.Float64bits(got), want, math.Float64bits(want), pts)
			}
		}
	})
}

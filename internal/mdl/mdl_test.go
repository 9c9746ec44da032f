package mdl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLEncoding(t *testing.T) {
	if got := L(8); got != 3 {
		t.Errorf("L(8) = %v", got)
	}
	if got := L(1); got != 0 {
		t.Errorf("L(1) = %v", got)
	}
	if got := L(0.5); got != 0 {
		t.Errorf("L(0.5) = %v, want 0 (clamped)", got)
	}
	if got := L(0); got != 0 {
		t.Errorf("L(0) = %v", got)
	}
}

func TestMDLNoParIsSumOfSegmentLengths(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(8, 0), geom.Pt(8, 4)}
	want := math.Log2(8) + math.Log2(4)
	if got := MDLNoPar(pts, 0, 2); !approx(got, want, 1e-12) {
		t.Errorf("MDLNoPar = %v, want %v", got, want)
	}
}

func TestMDLParStraightLine(t *testing.T) {
	// On an exactly straight line L(D|H) vanishes, so MDLpar is just the
	// span length — cheaper than keeping both segments.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(8, 0), geom.Pt(16, 0)}
	if got, want := MDLPar(pts, 0, 2), math.Log2(16); !approx(got, want, 1e-12) {
		t.Errorf("MDLPar = %v, want %v", got, want)
	}
	if MDLPar(pts, 0, 2) >= MDLNoPar(pts, 0, 2) {
		t.Error("straight line should favour partitioning")
	}
}

func TestMDLParPenalisesDeviation(t *testing.T) {
	straight := []geom.Point{geom.Pt(0, 0), geom.Pt(50, 0), geom.Pt(100, 0)}
	bent := []geom.Point{geom.Pt(0, 0), geom.Pt(50, 40), geom.Pt(100, 0)}
	if MDLPar(bent, 0, 2) <= MDLPar(straight, 0, 2) {
		t.Error("deviation should raise MDLpar")
	}
}

func TestApproximatePartitionTrivialInputs(t *testing.T) {
	if got := ApproximatePartition(nil, Config{}); got != nil {
		t.Errorf("nil input = %v", got)
	}
	one := []geom.Point{geom.Pt(0, 0)}
	if got := ApproximatePartition(one, Config{}); len(got) != 1 || got[0] != 0 {
		t.Errorf("one point = %v", got)
	}
	two := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}
	if got := ApproximatePartition(two, Config{}); len(got) != 2 {
		t.Errorf("two points = %v", got)
	}
}

func TestApproximatePartitionStraightLine(t *testing.T) {
	var pts []geom.Point
	for i := 0; i <= 20; i++ {
		pts = append(pts, geom.Pt(float64(i)*10, 0))
	}
	got := ApproximatePartition(pts, Config{})
	if len(got) != 2 || got[0] != 0 || got[1] != 20 {
		t.Errorf("straight line partition = %v, want [0 20]", got)
	}
}

func TestApproximatePartitionRightAngle(t *testing.T) {
	var pts []geom.Point
	for i := 0; i <= 10; i++ {
		pts = append(pts, geom.Pt(float64(i)*20, 0))
	}
	for i := 1; i <= 10; i++ {
		pts = append(pts, geom.Pt(200, float64(i)*20))
	}
	got := ApproximatePartition(pts, Config{})
	// Must include a characteristic point at or next to the corner
	// (index 10); the paper's algorithm partitions at the previous point,
	// so accept 9..11.
	found := false
	for _, cp := range got {
		if cp >= 9 && cp <= 11 {
			found = true
		}
	}
	if !found {
		t.Errorf("no characteristic point near the corner: %v", got)
	}
	if len(got) > 5 {
		t.Errorf("too many characteristic points for two straight legs: %v", got)
	}
}

func TestApproximatePartitionEndpointsAlwaysIncluded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(40)
		pts := randomWalk(rng, n)
		got := ApproximatePartition(pts, Config{CostAdvantage: rng.Float64() * 10})
		if got[0] != 0 || got[len(got)-1] != n-1 {
			t.Fatalf("endpoints missing: %v (n=%d)", got, n)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("not strictly increasing: %v", got)
			}
		}
	}
}

func TestCostAdvantageSuppressesPartitioning(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomWalk(rng, 200)
	prev := len(ApproximatePartition(pts, Config{}))
	for _, ca := range []float64{2, 5, 10, 20} {
		cur := len(ApproximatePartition(pts, Config{CostAdvantage: ca}))
		if cur > prev {
			t.Errorf("CostAdvantage %v increased partitions: %d > %d", ca, cur, prev)
		}
		prev = cur
	}
	if prev >= len(ApproximatePartition(pts, Config{})) {
		t.Error("large CostAdvantage had no effect")
	}
}

func TestOptimalPartitionMatchesBruteForce(t *testing.T) {
	// For small n the exact optimum can be checked against exhaustive
	// enumeration of all characteristic-point subsets.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(5) // 4..8 points
		pts := randomWalk(rng, n)
		got := OptimalPartition(pts)
		gotCost := PartitionCost(pts, got)
		bestCost := math.Inf(1)
		// Enumerate subsets of interior points.
		interior := n - 2
		for mask := 0; mask < 1<<interior; mask++ {
			cps := []int{0}
			for b := 0; b < interior; b++ {
				if mask&(1<<b) != 0 {
					cps = append(cps, b+1)
				}
			}
			cps = append(cps, n-1)
			if c := PartitionCost(pts, cps); c < bestCost {
				bestCost = c
			}
		}
		if !approx(gotCost, bestCost, 1e-9) {
			t.Fatalf("trial %d: DP cost %v != brute force %v (cps=%v)", trial, gotCost, bestCost, got)
		}
	}
}

func TestOptimalNeverWorseThanApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		pts := randomWalk(rng, 5+rng.Intn(30))
		opt := PartitionCost(pts, OptimalPartition(pts))
		apx := PartitionCost(pts, ApproximatePartition(pts, Config{}))
		if opt > apx+1e-9 {
			t.Fatalf("optimal %v worse than approximate %v", opt, apx)
		}
	}
}

func TestPrecision(t *testing.T) {
	if got := Precision([]int{0, 2, 5}, []int{0, 2, 4, 5}); !approx(got, 1, 1e-12) {
		t.Errorf("Precision = %v", got)
	}
	if got := Precision([]int{0, 1, 5}, []int{0, 5}); !approx(got, 2.0/3, 1e-12) {
		t.Errorf("Precision = %v", got)
	}
	if got := Precision(nil, []int{0}); got != 0 {
		t.Errorf("Precision of empty = %v", got)
	}
}

func TestShiftInvarianceProperty(t *testing.T) {
	// Section 3.2 / Appendix C: the length-based formulation must produce
	// identical partitions for shifted copies.
	f := func(seed int64, dx, dy float64) bool {
		if math.IsNaN(dx) || math.IsNaN(dy) || math.Abs(dx) > 1e5 || math.Abs(dy) > 1e5 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		pts := randomWalk(rng, 30)
		shifted := make([]geom.Point, len(pts))
		for i, p := range pts {
			shifted[i] = p.Add(geom.Pt(dx, dy))
		}
		a := ApproximatePartition(pts, Config{})
		b := ApproximatePartition(shifted, Config{})
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPartitionSegments(t *testing.T) {
	tr := geom.NewTrajectory(7, []geom.Point{
		geom.Pt(0, 0), geom.Pt(0, 0), // duplicate to exercise dedup
		geom.Pt(100, 0), geom.Pt(200, 0),
	})
	segs := Partition(tr, Config{})
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	for _, s := range segs {
		if s.IsDegenerate() {
			t.Errorf("degenerate segment %v survived", s)
		}
	}
}

func TestPartitionMinLength(t *testing.T) {
	tr := geom.NewTrajectory(1, []geom.Point{
		geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(5, 10), geom.Pt(200, 10),
	})
	all := Partition(tr, Config{})
	filtered := Partition(tr, Config{MinLength: 50})
	if len(filtered) >= len(all) {
		t.Skipf("partitioning produced no short segments to filter (all=%d)", len(all))
	}
	for _, s := range filtered {
		if s.Length() < 50 {
			t.Errorf("segment of length %v below MinLength survived", s.Length())
		}
	}
}

func TestPartitionTooShort(t *testing.T) {
	if got := Partition(geom.NewTrajectory(1, []geom.Point{geom.Pt(0, 0)}), Config{}); got != nil {
		t.Errorf("single-point trajectory = %v", got)
	}
	// All duplicate points dedup to one → nil.
	tr := geom.NewTrajectory(1, []geom.Point{geom.Pt(3, 3), geom.Pt(3, 3), geom.Pt(3, 3)})
	if got := Partition(tr, Config{}); got != nil {
		t.Errorf("all-duplicates trajectory = %v", got)
	}
}

func TestPartitionCostAdditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randomWalk(rng, 20)
	full := PartitionCost(pts, []int{0, 10, 19})
	want := MDLPar(pts, 0, 10) + MDLPar(pts, 10, 19)
	if !approx(full, want, 1e-12) {
		t.Errorf("PartitionCost = %v, want %v", full, want)
	}
}

func randomWalk(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	x, y := 0.0, 0.0
	heading := rng.Float64() * 2 * math.Pi
	for i := range pts {
		if rng.Float64() < 0.25 {
			heading += (rng.Float64() - 0.5) * 2
		}
		x += 10 * math.Cos(heading)
		y += 10 * math.Sin(heading)
		pts[i] = geom.Pt(x, y)
	}
	return pts
}

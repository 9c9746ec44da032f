package rtree

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rects := randRects(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := New()
		for j, r := range rects {
			t.Insert(r, j)
		}
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rects := randRects(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bulk(rects)
	}
}

func BenchmarkWithinDist(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1000, 10000} {
		rects := randRects(rng, n)
		t := Bulk(rects)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			count := 0
			for i := 0; i < b.N; i++ {
				q := rects[i%n]
				t.WithinDistOutside(q, 40, 0, 0, func(int) bool { count++; return true })
			}
			_ = count
		})
	}
}

package workload

import (
	"math/rand"
	"testing"
)

// TestSyntheticRNGMatchesMathRand holds the owned generator to the
// stdlib: for seeds at and around math/rand's seeding edge cases (zero,
// negative, large), every Float64 and Int63n draw — power-of-two masks
// and non-power-of-two bounds, one of them rejecting about half its
// draws — must equal rand.New(rand.NewSource(seed))'s, in a mixed order
// over a million draws.
func TestSyntheticRNGMatchesMathRand(t *testing.T) {
	const draws = 1 << 20
	bounds := []int64{1, 2, 64, 1 << 40, 3, 1000003, 1<<62 + 1, 1<<63 - 1}
	for _, seed := range []int64{0, -5, -1 << 40, 1, 2, 3, 4, 5, 6, 7, 8, 1 << 40} {
		ref := rand.New(rand.NewSource(seed))
		g := newLFG(seed)
		for i := 0; i < draws; i++ {
			if i%3 == 0 {
				if want, got := ref.Float64(), g.Float64(); got != want {
					t.Fatalf("seed %d, draw %d: Float64 = %v, want %v", seed, i, got, want)
				}
				continue
			}
			n := bounds[i%len(bounds)]
			if want, got := ref.Int63n(n), g.Int63n(n); got != want {
				t.Fatalf("seed %d, draw %d: Int63n(%d) = %d, want %d", seed, i, n, got, want)
			}
		}
	}
}

// TestLFGCopyForks: a copied generator continues the stream
// independently of the original.
func TestLFGCopyForks(t *testing.T) {
	g := newLFG(9)
	for range 1000 {
		g.Uint64()
	}
	c := g
	want := make([]uint64, 2000)
	for i := range want {
		want[i] = g.Uint64()
	}
	for i := range want {
		if got := c.Uint64(); got != want[i] {
			t.Fatalf("copy draw %d = %d, want %d", i, got, want[i])
		}
	}
}

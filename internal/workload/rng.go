package workload

import "math/rand"

// Register length and tap distance of Go 1's additive lagged-Fibonacci
// generator, the source behind math/rand's rand.NewSource.
const (
	lfgLen = 607
	lfgTap = 273
)

// lfg is Go 1's additive lagged-Fibonacci generator held by value, with
// the Float64 and Int63n draws math/rand v1 defines on top of it. It
// emits exactly the stream rand.New(rand.NewSource(seed)) would, but
// its whole state is plain data: copying an lfg forks the stream, which
// is what lets the prewarm memo hand a warmed generator to a new
// machine, and the draws inline into the generators' hot loops.
type lfg struct {
	vec       [lfgLen]int64 // feedback register
	tap, feed int           // indexes into vec
}

// newLFG returns the generator rand.NewSource(seed) starts as. Rather
// than re-deriving math/rand's seeding, it reads the first lfgLen
// outputs of a real source: each of those draws overwrote one register
// slot (vec[feed] += vec[tap]) and left tap and feed where they began,
// so the outputs are the register after lfgLen steps, and undoing the
// steps newest first recovers the seeded register.
func newLFG(seed int64) lfg {
	src := rand.New(rand.NewSource(seed))
	g := lfg{tap: 0, feed: lfgLen - lfgTap}
	for range lfgLen {
		g.step()
		g.vec[g.feed] = int64(src.Uint64())
	}
	for range lfgLen {
		g.vec[g.feed] -= g.vec[g.tap]
		g.tap = (g.tap + 1) % lfgLen
		g.feed = (g.feed + 1) % lfgLen
	}
	return g
}

// step moves tap and feed one slot back, as every draw does first.
func (g *lfg) step() {
	g.tap--
	if g.tap < 0 {
		g.tap += lfgLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += lfgLen
	}
}

// Uint64 returns the next 64 bits of the stream.
func (g *lfg) Uint64() uint64 {
	g.step()
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit integer, as rand.Rand.Int63.
func (g *lfg) Int63() int64 { return int64(g.Uint64() &^ (1 << 63)) }

// Float64 returns a float in [0, 1), as rand.Rand.Float64: a draw that
// rounds up to 1 is redrawn.
func (g *lfg) Float64() float64 {
	for {
		if f := float64(g.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Int63n returns an integer in [0, n), as rand.Rand.Int63n: a power of
// two masks one draw, anything else rejects draws above the largest
// multiple of n. n must be positive.
func (g *lfg) Int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return g.Int63() & (n - 1)
	}
	max := int64((1<<63 - 1) - (1<<63)%uint64(n))
	v := g.Int63()
	for v > max {
		v = g.Int63()
	}
	return v % n
}

// Package workload provides instruction-stream generators for the
// simulated cores: the paper's synthetic sequential and random patterns
// with a configurable store fraction (§VI), plus small helpers for tests.
package workload

import (
	"fmt"

	"dramstacks/internal/cpu"
)

// Pattern selects the synthetic address pattern.
type Pattern uint8

const (
	// Sequential walks the footprint line by line (prefetcher friendly,
	// ~99% DRAM page hits with the default mapping).
	Sequential Pattern = iota
	// Random touches uniformly random lines of the footprint through a
	// bounded number of dependent chains (pointer-chase style), which
	// limits memory-level parallelism the way the paper's random
	// benchmark behaves.
	Random
	// Strided walks the footprint with a fixed stride larger than a
	// cache line (StrideBytes): every access misses the line the
	// previous one fetched, the stream prefetcher cannot lock on beyond
	// its stride table, and page hits depend on how many strides fit in
	// a DRAM row.
	Strided
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Random:
		return "random"
	case Strided:
		return "strided"
	default:
		return "sequential"
	}
}

// SyntheticConfig parameterizes a synthetic stream.
type SyntheticConfig struct {
	Pattern Pattern
	// StoreFrac is the fraction of memory operations that are stores
	// (the paper's 0%..50% sweep). A store to an uncached line causes
	// both a DRAM read (write-allocate) and, later, a writeback.
	StoreFrac float64
	// WorkPerOp is the number of plain uops between memory operations.
	WorkPerOp int
	// FootprintBytes is the working set per core; it should exceed the
	// LLC to exercise DRAM.
	FootprintBytes uint64
	// BaseAddr is the start of this core's region.
	BaseAddr uint64
	// StrideBytes is the sequential step (one cache line by default).
	StrideBytes uint64
	// Chains is the number of independent dependent-load chains for the
	// random pattern (bounds MLP; 2 matches the paper's random curve).
	Chains int
	// BranchEvery inserts a conditional branch every so many memory
	// operations (0 disables).
	BranchEvery int
	// MispredictRate is the fraction of those branches mispredicted.
	MispredictRate float64
	// Ops is the number of memory operations to emit; 0 means unbounded
	// (the simulation's cycle limit stops the run).
	Ops int64
	// Seed makes the stream deterministic.
	Seed int64
}

// Validate reports a descriptive error for unusable configurations.
func (c SyntheticConfig) Validate() error {
	switch {
	case c.StoreFrac < 0 || c.StoreFrac > 1:
		return fmt.Errorf("workload: store fraction %v out of [0,1]", c.StoreFrac)
	case c.WorkPerOp < 0:
		return fmt.Errorf("workload: work per op %d negative", c.WorkPerOp)
	case c.FootprintBytes < 64:
		return fmt.Errorf("workload: footprint %d too small", c.FootprintBytes)
	case c.Pattern == Random && c.Chains <= 0:
		return fmt.Errorf("workload: random pattern needs at least one chain, got %d", c.Chains)
	case c.MispredictRate < 0 || c.MispredictRate > 1:
		return fmt.Errorf("workload: mispredict rate %v out of [0,1]", c.MispredictRate)
	}
	return nil
}

// DefaultSequential returns the sequential pattern configuration used by
// the paper-figure experiments for one core.
func DefaultSequential() SyntheticConfig {
	return SyntheticConfig{
		Pattern:        Sequential,
		WorkPerOp:      140,
		FootprintBytes: 64 << 20,
		StrideBytes:    64,
		Seed:           1,
	}
}

// DefaultStrided returns a strided pattern configuration (4 lines
// apart: every access is a new cache line, four per DRAM page-walk
// step).
func DefaultStrided() SyntheticConfig {
	return SyntheticConfig{
		Pattern:        Strided,
		WorkPerOp:      40,
		FootprintBytes: 64 << 20,
		StrideBytes:    256,
		Seed:           1,
	}
}

// DefaultLatCrit returns the latency-critical tenant of the QoS
// experiments: a single dependent pointer-chase with compute between
// loads, so it demands little bandwidth but every access sits on the
// critical path — the tenant a real-time priority tier protects.
func DefaultLatCrit() SyntheticConfig {
	return SyntheticConfig{
		Pattern:        Random,
		WorkPerOp:      60,
		FootprintBytes: 64 << 20,
		StrideBytes:    64,
		Chains:         1,
		Seed:           1,
	}
}

// DefaultBWHog returns the bandwidth-hog tenant of the QoS experiments:
// back-to-back sequential streaming with no compute between accesses,
// saturating the channel — the tenant a bandwidth budget reins in.
func DefaultBWHog() SyntheticConfig {
	return SyntheticConfig{
		Pattern:        Sequential,
		FootprintBytes: 64 << 20,
		StrideBytes:    64,
		Seed:           1,
	}
}

// DefaultRandom returns the random pattern configuration.
func DefaultRandom() SyntheticConfig {
	return SyntheticConfig{
		Pattern:        Random,
		WorkPerOp:      10,
		FootprintBytes: 64 << 20,
		StrideBytes:    64,
		Chains:         2,
		Seed:           1,
	}
}

// Synthetic generates the stream; it implements cpu.Source. Its random
// draws come from an owned copy of Go 1's math/rand generator (lfg),
// seeded from SyntheticConfig.Seed to emit exactly the values
// rand.New(rand.NewSource(Seed)) would: newLFG reads the seeded
// register back out of a real math/rand source, so the stdlib stays
// the reference for the stream. Every field is plain data, so
// the whole generator state — stream position included — can be
// copied (CloneWarm, RestoreWarm).
type Synthetic struct {
	cfg SyntheticConfig
	rng lfg

	// drawStore records whether the per-op store draw must consume the
	// RNG. With StoreFrac 0 the draw can only matter by advancing the
	// stream for a later consumer, so it is kept whenever any other
	// draw exists (random addresses, branch outcomes) and skipped only
	// when the generator is otherwise fully deterministic — where the
	// RNG state is unobservable and the emitted stream is identical.
	drawStore bool

	emitted    int64
	seqOffset  uint64
	sinceBr    int
	loadsSince []int64 // per chain: loads emitted since that chain's last load
	loadCount  int64
	nextChain  int
}

var _ cpu.Source = (*Synthetic)(nil)

// NewSynthetic returns a generator; configuration errors surface here.
func NewSynthetic(cfg SyntheticConfig) (*Synthetic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.StrideBytes == 0 {
		cfg.StrideBytes = 64
	}
	s := &Synthetic{cfg: cfg, rng: newLFG(cfg.Seed)}
	s.drawStore = cfg.StoreFrac > 0 || cfg.Pattern == Random || cfg.BranchEvery > 0
	if cfg.Pattern == Random {
		s.loadsSince = make([]int64, cfg.Chains)
		for i := range s.loadsSince {
			s.loadsSince[i] = -1
		}
	}
	return s, nil
}

// MustSynthetic is NewSynthetic for known-good configurations.
func MustSynthetic(cfg SyntheticConfig) *Synthetic {
	s, err := NewSynthetic(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Next implements cpu.Source.
func (s *Synthetic) Next() (cpu.Instr, bool) {
	// Interleave branches between memory operations (a due branch is
	// emitted even when the op budget has just run out).
	if s.cfg.BranchEvery > 0 && s.sinceBr >= s.cfg.BranchEvery {
		s.sinceBr = 0
		return cpu.Instr{
			Kind:       cpu.KindBranch,
			Mispredict: s.rng.Float64() < s.cfg.MispredictRate,
		}, true
	}
	if s.cfg.Ops > 0 && s.emitted >= s.cfg.Ops {
		return cpu.Instr{}, false
	}
	s.sinceBr++
	s.emitted++

	var isStore bool
	if s.drawStore {
		isStore = s.rng.Float64() < s.cfg.StoreFrac
	}
	ins := cpu.Instr{Work: s.cfg.WorkPerOp, Kind: cpu.KindLoad}
	if isStore {
		ins.Kind = cpu.KindStore
	}

	switch s.cfg.Pattern {
	case Sequential, Strided:
		ins.Addr = s.cfg.BaseAddr + s.seqOffset
		s.seqOffset += s.cfg.StrideBytes
		if s.seqOffset >= s.cfg.FootprintBytes {
			s.seqOffset = 0
		}
	case Random:
		lines := s.cfg.FootprintBytes / 64
		ins.Addr = s.cfg.BaseAddr + uint64(s.rng.Int63n(int64(lines)))*64
		if !isStore {
			chain := s.nextChain
			s.nextChain = (s.nextChain + 1) % s.cfg.Chains
			// Depend on this chain's previous load if it is close
			// enough to be tracked by the core's load history.
			if last := s.loadsSince[chain]; last >= 0 {
				if dep := s.loadCount - last; dep >= 1 && dep <= 32 {
					ins.LoadDep = int(dep)
				}
			}
			s.loadCount++
			s.loadsSince[chain] = s.loadCount - 1
		}
	}
	return ins, true
}

// Emitted returns how many memory operations have been produced.
func (s *Synthetic) Emitted() int64 { return s.emitted }

// Slice is a fixed instruction list implementing cpu.Source, for tests.
type Slice struct {
	Instrs []cpu.Instr
	pos    int
}

// Next implements cpu.Source.
func (s *Slice) Next() (cpu.Instr, bool) {
	if s.pos >= len(s.Instrs) {
		return cpu.Instr{}, false
	}
	ins := s.Instrs[s.pos]
	s.pos++
	return ins, true
}

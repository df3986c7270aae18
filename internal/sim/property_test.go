package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/qos"
	"dramstacks/internal/workload"
)

// randSpec is one randomly drawn simulation configuration. Everything
// is derived deterministically from the test's seeded generator, so a
// failure reproduces by index.
type randSpec struct {
	name    string
	cfg     Config
	seed    int64 // per-spec workload seed
	cores   int
	pattern workload.Pattern
	// per-core workload shape, drawn per spec
	footprint int
	workPerOp int
	chains    int
	branch    int
	mispred   float64
	ops       int64 // >0: finite workload, run to completion
	live      bool  // attach a sample observer (see goldenCompare)
}

// drawSpec samples one spec from the cross product the issue names —
// standards × cores × page policy — plus the workload and observation
// axes the golden tests cover by hand (patterns, footprints, branch
// behavior, warmup, sampling, finite runs, channel counts).
func drawSpec(rng *rand.Rand, i int) randSpec {
	names := standard.Names()
	stdName := names[rng.Intn(len(names))]
	std := standard.MustLookup(stdName)

	sp := randSpec{
		seed:      rng.Int63n(1 << 30),
		cores:     1 + rng.Intn(4),
		pattern:   workload.Sequential,
		footprint: 1 << 14, // cache resident
		workPerOp: rng.Intn(61),
	}
	if rng.Intn(2) == 0 {
		sp.pattern = workload.Random
		sp.chains = 1 + rng.Intn(4)
	}
	switch rng.Intn(3) {
	case 1:
		sp.footprint = 1 << 20 // LLC-sized: boundary traffic
	case 2:
		sp.footprint = 1 << 26 // DRAM-sized: saturating traffic
	}
	if rng.Intn(2) == 0 {
		sp.branch = 2 + rng.Intn(7)
		sp.mispred = float64(rng.Intn(11)) / 20 // 0 .. 0.5
	}

	cfg := DefaultFor(std, sp.cores)
	if rng.Intn(2) == 0 {
		cfg.Ctrl.Policy = memctrl.ClosedPage
	}
	if std.SubChannels <= 1 && rng.Intn(3) == 0 {
		cfg.Channels = 2
	}
	cfg.MaxMemCycles = 6_000 + rng.Int63n(10_000)
	if rng.Intn(4) == 0 {
		cfg.WarmupMemCycles = cfg.MaxMemCycles / int64(2+rng.Intn(3))
	}
	if rng.Intn(2) == 0 {
		cfg.SampleInterval = cfg.MaxMemCycles / int64(3+rng.Intn(5))
		if rng.Intn(2) == 0 {
			sp.live = true
		}
	}
	if rng.Intn(4) == 0 {
		cfg.PrewarmOps = 1 << 12
	}
	// QoS policies join the randomized space: tracking-only, regulated,
	// prioritized and combined configurations must keep the two loops
	// field-identical, including the per-source stacks and the held-read
	// release schedule at window boundaries.
	if rng.Intn(3) == 0 {
		q := qos.Config{
			Sources: sp.cores,
			Window:  512 + rng.Int63n(4096),
			Budget:  make([]int, sp.cores),
			RT:      make([]bool, sp.cores),
		}
		for c := 0; c < sp.cores; c++ {
			if rng.Intn(2) == 0 {
				q.Budget[c] = 1 + rng.Intn(64)
			}
			q.RT[c] = rng.Intn(4) == 0
		}
		if rng.Intn(4) == 0 {
			q.Aging = 1_000 + rng.Int63n(8_000)
		}
		if err := q.Validate(); err != nil {
			panic(err) // generator bug, not a simulator property
		}
		cfg.Ctrl.QoS = q
	}
	// Occasionally run a finite workload to completion instead, covering
	// the done() exit and the post-drain idle tail.
	if sp.cores <= 2 && rng.Intn(5) == 0 {
		sp.ops = 300 + rng.Int63n(1_200)
		cfg.MaxMemCycles = 0
	}
	sp.cfg = cfg
	sp.name = fmt.Sprintf("%03d-%s-%dc-%s-%s", i, stdName, sp.cores,
		sp.pattern, cfg.Ctrl.Policy)
	if cfg.Ctrl.QoS.Enabled() {
		sp.name += "-qos"
	}
	return sp
}

// sources builds a fresh, identical source set for the spec; every
// call returns streams with the same seeds, as goldenCompare requires.
func (sp randSpec) sources() []cpu.Source {
	var out []cpu.Source
	for c := 0; c < sp.cores; c++ {
		out = append(out, workload.MustSynthetic(workload.SyntheticConfig{
			Pattern:        sp.pattern,
			WorkPerOp:      sp.workPerOp,
			Chains:         sp.chains,
			FootprintBytes: uint64(sp.footprint),
			StrideBytes:    64,
			BranchEvery:    sp.branch,
			MispredictRate: sp.mispred,
			Ops:            sp.ops,
			BaseAddr:       uint64(c) * (256 << 20),
			Seed:           sp.seed + int64(c),
		}))
	}
	return out
}

// TestGoldenRandomizedSpecs upgrades the hand-picked golden-equivalence
// cases into a generative oracle: ~50 seeded random specs across the
// registry's standards, core counts and page policies must produce
// field-identical Results (and sample streams) in the event-wheel loop
// and the reference per-cycle loop. The generator is seeded, so every
// run checks the same 50 specs and a failure names the one to replay.
// The CI race job runs this under -race via the Golden pattern.
func TestGoldenRandomizedSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized golden specs skipped in -short")
	}
	rng := rand.New(rand.NewSource(0x5eed7))
	for i := 0; i < 50; i++ {
		sp := drawSpec(rng, i)
		t.Run(sp.name, func(t *testing.T) {
			goldenCompare(t, sp.name, sp.cfg, sp.sources, sp.live)
		})
	}
}

// drawHostileSpec samples configurations built to break the batching
// fast paths at their seams: op budgets that end a stream mid-batch or
// leave a 1-instruction tail, branch cadences coprime to the batch
// size, prime sample intervals that land cuts inside fast-forward and
// replay spans, and prewarm quotas that straddle a refill boundary.
func drawHostileSpec(rng *rand.Rand, i int) randSpec {
	// Around the 64-instruction batch: exact multiples, one-off
	// stragglers, and streams shorter than a single batch.
	hostileOps := []int64{1, 2, 63, 64, 65, 127, 128, 129, 191, 257, 321, 1025}
	// Primes (and near-primes) well below MaxMemCycles: cuts land inside
	// idle skips and controller replay spans rather than on their edges.
	hostileIntervals := []int64{61, 127, 251, 509, 1021, 2039}

	sp := randSpec{
		seed:      rng.Int63n(1 << 30),
		cores:     1 + rng.Intn(3),
		pattern:   workload.Sequential,
		footprint: 1 << 20,
		workPerOp: rng.Intn(21),
	}
	if rng.Intn(2) == 0 {
		sp.pattern = workload.Random
		sp.chains = 1 + rng.Intn(3)
	}
	if rng.Intn(2) == 0 {
		sp.footprint = 1 << 26 // DRAM-sized: saturating traffic
	}
	// Branch cadence coprime to the batch size, so KindBranch items
	// drift across batch boundaries instead of repeating in phase.
	if rng.Intn(2) == 0 {
		sp.branch = []int{3, 5, 7, 9, 11, 13}[rng.Intn(6)]
		sp.mispred = float64(1+rng.Intn(10)) / 20
	}

	cfg := DefaultFor(standard.Default(), sp.cores)
	cfg.MaxMemCycles = 6_000 + rng.Int63n(6_000)
	cfg.SampleInterval = hostileIntervals[rng.Intn(len(hostileIntervals))]
	switch rng.Intn(3) {
	case 0:
		// Mid-batch Done: the finite stream ends inside a batch (or as a
		// 1-instruction tail), and the run drains to completion.
		sp.ops = hostileOps[rng.Intn(len(hostileOps))]
		cfg.MaxMemCycles = 0
	case 1:
		// Prewarm quota straddling a refill: the feed must hand back
		// exactly quota items even when that retires it mid-batch.
		cfg.PrewarmOps = []int64{1, 63, 64, 65, 127, 129}[rng.Intn(6)]
	}
	if rng.Intn(4) == 0 {
		cfg.WarmupMemCycles = cfg.MaxMemCycles / 3
	}
	sp.cfg = cfg
	sp.name = fmt.Sprintf("hostile-%03d-%dc-%s-ops%d-si%d", i, sp.cores,
		sp.pattern, sp.ops, cfg.SampleInterval)
	return sp
}

// TestGoldenBatchHostileSpecs points the two-loop oracle at the batching
// seams: every spec from drawHostileSpec must still produce
// field-identical Results and sample streams in the event-wheel loop
// and the reference per-cycle loop. The CI race job runs this under
// -race via the Golden pattern.
func TestGoldenBatchHostileSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("batch-hostile golden specs skipped in -short")
	}
	rng := rand.New(rand.NewSource(0xba7c4))
	for i := 0; i < 16; i++ {
		sp := drawHostileSpec(rng, i)
		t.Run(sp.name, func(t *testing.T) {
			goldenCompare(t, sp.name, sp.cfg, sp.sources, sp.live)
		})
	}
}

// TestSampleIntervalInvariance pins the sampler-cut behavior at
// fast-forward boundaries: cutting through-time samples is observation,
// so the simulated outcome — every Result field except the sample
// streams themselves — must be bit-identical whatever SampleInterval
// is, including intervals that land a cut exactly on the final cycle
// of an idle skip or replay span. A drifting stack or statistic under a
// changed interval would mean a span was split differently by the cut
// (the off-by-one this test exists to catch).
func TestSampleIntervalInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("sample-interval invariance skipped in -short")
	}
	rng := rand.New(rand.NewSource(0x5a41e))
	for i := 0; i < 10; i++ {
		sp := drawSpec(rng, i)
		run := func(interval int64) *Result {
			c := sp.cfg
			c.SampleInterval = interval
			sys, err := New(standard.Default(), WithConfig(c), WithSources(sp.sources()...))
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			res := sys.Run()
			// Strip everything observation-only before comparing.
			res.Cfg = Config{}
			res.BWSamples = nil
			res.CycleSamples = nil
			return res
		}
		base := run(0)
		cycles := base.MemCycles
		intervals := []int64{1 + rng.Int63n(97), 509}
		if cycles > 1 {
			// An interval dividing the run puts a cut on the very last
			// cycle; an interval of cycles-1 puts one right before it.
			intervals = append(intervals, cycles, cycles-1, cycles/2)
		}
		for _, iv := range intervals {
			if iv <= 0 {
				continue
			}
			got := run(iv)
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s: Result changed when sampling every %d cycles", sp.name, iv)
			}
		}
	}
}

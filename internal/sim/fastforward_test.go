package sim

import (
	"reflect"
	"testing"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

// goldenCompare runs the same configuration through the fast-forwarding
// loop and the reference per-cycle loop and requires byte-identical
// results: every stack, sample, histogram and statistic. mk must return a
// fresh, identical source set on each call. With live set, a sample
// observer is attached and the published streams must match as well.
func goldenCompare(t *testing.T, name string, cfg Config, mk func() []cpu.Source, live bool) {
	t.Helper()

	var fastSamples, slowSamples []stacks.Sample
	run := func(slow bool, sink *[]stacks.Sample) *Result {
		opts := []Option{WithConfig(cfg), WithSources(mk()...)}
		if live {
			opts = append(opts, WithSampleFunc(func(s stacks.Sample) { *sink = append(*sink, s) }))
		}
		sys, err := New(standard.Default(), opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sys.slow = slow
		res := sys.Run()
		// Function fields never compare equal; everything else must.
		res.Cfg.Trace = nil
		return res
	}
	fast := run(false, &fastSamples)
	slow := run(true, &slowSamples)

	if !reflect.DeepEqual(fastSamples, slowSamples) {
		t.Errorf("%s: published sample streams differ (fast %d, slow %d)",
			name, len(fastSamples), len(slowSamples))
	}
	if reflect.DeepEqual(fast, slow) {
		return
	}
	ft, fv, sv := reflect.TypeOf(*fast), reflect.ValueOf(*fast), reflect.ValueOf(*slow)
	for i := 0; i < ft.NumField(); i++ {
		if !reflect.DeepEqual(fv.Field(i).Interface(), sv.Field(i).Interface()) {
			t.Errorf("%s: Result.%s differs:\n fast: %+v\n slow: %+v",
				name, ft.Field(i).Name, fv.Field(i).Interface(), sv.Field(i).Interface())
		}
	}
}

// cacheResident returns sources whose footprint fits in the caches: after
// prewarm the cores run without DRAM traffic, so nearly every memory
// cycle is provably idle and the fast loop spends the run fast-forwarding
// across refresh deadlines.
func cacheResident(cores int, workPerOp int, branchEvery int, mispredict float64) func() []cpu.Source {
	return func() []cpu.Source {
		var sources []cpu.Source
		for i := 0; i < cores; i++ {
			sources = append(sources, workload.MustSynthetic(workload.SyntheticConfig{
				Pattern:        workload.Sequential,
				WorkPerOp:      workPerOp,
				FootprintBytes: 1 << 14,
				StrideBytes:    64,
				BranchEvery:    branchEvery,
				MispredictRate: mispredict,
				BaseAddr:       uint64(i) * (256 << 20),
				Seed:           int64(i + 1),
			}))
		}
		return sources
	}
}

// TestGoldenLowUtilIdle is the primary fast-forward exercise: a
// cache-resident compute-bound core leaves the controller idle for
// essentially the whole run, so the fast loop covers it with bulk idle
// accounting punctuated only by refresh ticks — across warmup and sample
// boundaries.
func TestGoldenLowUtilIdle(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 1)
	cfg.MaxMemCycles = 80_000
	cfg.WarmupMemCycles = 15_000
	cfg.SampleInterval = 10_000
	cfg.PrewarmOps = 1 << 12
	goldenCompare(t, "low-util idle", cfg, cacheResident(1, 60, 0, 0), false)
}

// TestGoldenBranchBubble adds frequent branch mispredictions with nothing
// in flight, the state the core replays in closed form as pipeline refill
// (Branch) cycles.
func TestGoldenBranchBubble(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 1)
	cfg.MaxMemCycles = 60_000
	cfg.SampleInterval = 7_000
	cfg.PrewarmOps = 1 << 12
	goldenCompare(t, "branch bubble", cfg, cacheResident(1, 0, 3, 0.5), false)
}

// TestGoldenDrainToDone runs a finite DRAM-bound workload to completion
// (MaxMemCycles = 0), covering the done() exit and the post-drain idle
// tail under fast-forwarding.
func TestGoldenDrainToDone(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 1)
	cfg.MaxMemCycles = 0
	cfg.SampleInterval = 5_000
	mk := func() []cpu.Source {
		wc := workload.DefaultSequential()
		wc.Ops = 1_500
		return []cpu.Source{workload.MustSynthetic(wc)}
	}
	goldenCompare(t, "drain to done", cfg, mk, false)
}

// TestGoldenMultichannelSampling drives two channels from two cores with
// warmup, periodic samples and a live sample observer; per-channel
// lazy catch-up must keep every published sample byte-identical.
func TestGoldenMultichannelSampling(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 2)
	cfg.Channels = 2
	cfg.MaxMemCycles = 100_000
	cfg.WarmupMemCycles = 20_000
	cfg.SampleInterval = 10_000
	cfg.PrewarmOps = 1 << 12
	mk := func() []cpu.Source { return SyntheticSources(workload.Random, 2, 0.2) }
	goldenCompare(t, "multichannel sampling", cfg, mk, true)
}

// TestGoldenPatternPolicyMatrix sweeps the paper's Fig. 2/4 axes
// (sequential/random crossed with open/closed page policy) on a reduced
// budget; DRAM-bound phases interleave with idle gaps on the low-MLP
// random pattern.
func TestGoldenPatternPolicyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix skipped in -short")
	}
	for _, pat := range []workload.Pattern{workload.Sequential, workload.Random} {
		for _, pol := range []memctrl.PagePolicy{memctrl.OpenPage, memctrl.ClosedPage} {
			cfg := DefaultFor(standard.Default(), 1)
			cfg.Ctrl.Policy = pol
			cfg.MaxMemCycles = 60_000
			cfg.SampleInterval = 15_000
			cfg.PrewarmOps = 1 << 16
			pat := pat
			mk := func() []cpu.Source { return SyntheticSources(pat, 1, 0) }
			goldenCompare(t, pat.String()+"/"+pol.String(), cfg, mk, false)
		}
	}
}

// TestGoldenPrewarmedStores runs the seed oracle's shape — two
// sequential cores with stores from a fully warmed hierarchy — whose
// writeback traffic keeps the controller busy while the cores sit in
// replayable windows behind full ROBs.
func TestGoldenPrewarmedStores(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 2)
	cfg.MaxMemCycles = 20_000
	cfg.SampleInterval = 3_000
	cfg.PrewarmOps = 1 << 20
	mk := func() []cpu.Source { return SyntheticSources(workload.Sequential, 2, 0.2) }
	goldenCompare(t, "prewarmed stores", cfg, mk, true)
}

// TestGoldenCrossChannelWriteback uses a fully associative LLC, so a
// fill on one channel evicts dirty lines that belong to the other: the
// writeback reaches a controller that may already have had its turn in
// this cycle's controller phase, and must first be seen on its next
// cycle, exactly as in the reference loop.
func TestGoldenCrossChannelWriteback(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 2)
	cfg.Channels = 2
	cfg.Hier.L2.SizeBytes = 16 << 10
	cfg.Hier.LLC.SizeBytes, cfg.Hier.LLC.Ways = 16*64, 16
	cfg.MaxMemCycles = 30_000
	cfg.SampleInterval = 5_000
	mk := func() []cpu.Source { return SyntheticSources(workload.Random, 2, 0.5) }
	goldenCompare(t, "cross-channel writeback", cfg, mk, true)
}

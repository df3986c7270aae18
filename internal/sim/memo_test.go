package sim_test

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/exp"
	"dramstacks/internal/sim"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

// memoOps is the prewarm quota of the cold-vs-memo suite: far below the
// specs' own 1M ops so cold runs stay cheap, yet enough to fill every
// private level and part of the LLC, so restored sets mix valid and
// invalid ways.
const memoOps = 1 << 15

// memoRun is everything observable about one run: the served result
// bytes, the through-time sample stream, and the final cache state.
type memoRun struct {
	result  []byte
	samples string
	caches  []byte
}

// runMemoSpec builds and runs spec exactly as exp.RunSpec does, with the
// prewarm quota lowered to memoOps.
func runMemoSpec(spec exp.Spec) (memoRun, error) {
	n := spec.Normalized()
	if err := n.Validate(); err != nil {
		return memoRun{}, err
	}
	std, cfg, err := n.SimConfig()
	if err != nil {
		return memoRun{}, err
	}
	if cfg.PrewarmOps == 0 {
		return memoRun{}, fmt.Errorf("%s does not prewarm", n.Label())
	}
	cfg.PrewarmOps = memoOps
	srcs, err := n.Sources()
	if err != nil {
		return memoRun{}, err
	}
	var samples []stacks.Sample
	sys, err := sim.New(std, sim.WithConfig(cfg), sim.WithSources(srcs...),
		sim.WithSampleFunc(func(s stacks.Sample) { samples = append(samples, s) }))
	if err != nil {
		return memoRun{}, err
	}
	res := sys.Run()
	out, err := exp.ResultJSON(n, res)
	if err != nil {
		return memoRun{}, err
	}
	caches, err := sys.Hierarchy().Snapshot()
	if err != nil {
		return memoRun{}, err
	}
	return memoRun{result: out, samples: fmt.Sprintf("%+v", samples), caches: caches}, nil
}

func mustRunMemoSpec(t *testing.T, spec exp.Spec) memoRun {
	t.Helper()
	r, err := runMemoSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (r memoRun) diff(o memoRun) string {
	switch {
	case !bytes.Equal(r.result, o.result):
		return fmt.Sprintf("result JSON differs:\n%s\n%s", r.result, o.result)
	case r.samples != o.samples:
		return "sample streams differ"
	case !bytes.Equal(r.caches, o.caches):
		return "final cache states differ"
	}
	return ""
}

// memoFamilies are the prewarming spec families: every synthetic
// pattern at 1–8 cores with and without stores, STREAM kernels, the QoS
// tenants with and without a policy, a second channel, sampling, and
// every DRAM standard.
func memoFamilies(short bool) []exp.Spec {
	const budget = 4000
	var out []exp.Spec
	cores := []int{1, 2, 4, 8}
	if short {
		cores = []int{1, 3}
	}
	for _, w := range []string{"seq", "random", "strided"} {
		for _, c := range cores {
			for _, st := range []float64{0, 0.5} {
				out = append(out, exp.Spec{Workload: w, Cores: c, Stores: st, Budget: budget})
			}
		}
	}
	for _, w := range []string{"copy", "triad"} {
		out = append(out, exp.Spec{Workload: w, Cores: 2, Budget: budget})
	}
	for _, w := range []string{"latcrit", "bwhog"} {
		for _, q := range []string{"", "win=2048,cap=1:16,rt=0"} {
			out = append(out, exp.Spec{Workload: w, Cores: 2, QoS: q, Budget: budget})
		}
	}
	out = append(out,
		exp.Spec{Workload: "seq", Cores: 2, Channels: 2, Stores: 0.5, Budget: budget},
		exp.Spec{Workload: "random", Cores: 2, Sample: 1000, Budget: budget})
	for _, name := range standard.Names() {
		out = append(out, exp.Spec{Workload: "seq", Cores: 2, Stores: 0.5, Standard: name, Budget: budget})
	}
	return out
}

// TestPrewarmMemoMatchesCold runs each prewarming family cold (memo
// empty) and then twice from the memo, on one and on two processors
// (serial and parallel warm and replay paths), and requires
// byte-identical results, sample streams and final cache states.
func TestPrewarmMemoMatchesCold(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, spec := range memoFamilies(testing.Short()) {
			name := fmt.Sprintf("procs%d/%s/stores%g/ch%d/sample%d", procs,
				spec.Normalized().Label(), spec.Stores, spec.Channels, spec.Sample)
			t.Run(name, func(t *testing.T) {
				sim.ResetPrewarmMemo()
				hits0, misses0, _ := sim.PrewarmMemoStats()
				cold := mustRunMemoSpec(t, spec)
				if _, misses, bytes := sim.PrewarmMemoStats(); misses != misses0+1 || bytes == 0 {
					t.Fatalf("cold run: %d misses, %d bytes retained; want one miss recorded", misses-misses0, bytes)
				}
				for rep := 1; rep <= 2; rep++ {
					if d := cold.diff(mustRunMemoSpec(t, spec)); d != "" {
						t.Fatalf("memo run %d: %s", rep, d)
					}
				}
				if hits, _, _ := sim.PrewarmMemoStats(); hits != hits0+2 {
					t.Fatalf("%d memo hits, want 2", hits-hits0)
				}
			})
		}
	}
}

// TestPrewarmMemoConcurrentSameKey builds the same machine from two
// goroutines at once with the memo empty — both may warm and record the
// state — and then once more from the memo: every run must match the
// cold reference. Run under -race it checks the memo's locking.
func TestPrewarmMemoConcurrentSameKey(t *testing.T) {
	spec := exp.Spec{Workload: "random", Cores: 2, Stores: 0.5, Sample: 1000, Budget: 4000}
	sim.ResetPrewarmMemo()
	ref := mustRunMemoSpec(t, spec)
	sim.ResetPrewarmMemo()
	var wg sync.WaitGroup
	runs := make([]memoRun, 2)
	errs := make([]error, 2)
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = runMemoSpec(spec)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	runs = append(runs, mustRunMemoSpec(t, spec))
	for i, r := range runs {
		if d := ref.diff(r); d != "" {
			t.Fatalf("run %d: %s", i, d)
		}
	}
}

type memoSourceFamily struct {
	name  string
	build func() []cpu.Source
}

// memoSourceFamilies are source sets whose post-warm state the memo
// must reproduce: the spec families' synthetic patterns with and
// without stores, STREAM kernels and QoS tenants, plus a branchy
// synthetic stream no spec builds (BranchEvery > 0 draws mispredicts
// from the same generator as the stores and addresses).
func memoSourceFamilies() []memoSourceFamily {
	var out []memoSourceFamily
	for _, w := range []string{"seq", "random", "strided", "copy", "triad", "latcrit", "bwhog"} {
		for _, st := range []float64{0, 0.5} {
			spec := exp.Spec{Workload: w, Cores: 2, Stores: st}.Normalized()
			out = append(out, memoSourceFamily{fmt.Sprintf("%s/stores%g", w, st), func() []cpu.Source {
				srcs, err := spec.Sources()
				if err != nil {
					panic(err)
				}
				return srcs
			}})
		}
	}
	for _, p := range []workload.Pattern{workload.Sequential, workload.Random} {
		out = append(out, memoSourceFamily{"branchy/" + p.String(), func() []cpu.Source {
			var srcs []cpu.Source
			for c := 0; c < 2; c++ {
				srcs = append(srcs, workload.MustSynthetic(workload.SyntheticConfig{
					Pattern: p, StoreFrac: 0.25, WorkPerOp: 3,
					FootprintBytes: 1 << 24, StrideBytes: 64, Chains: 2,
					BranchEvery: 5, MispredictRate: 0.3,
					BaseAddr: uint64(c) << 30, Seed: int64(c + 11),
				}))
			}
			return srcs
		}})
	}
	return out
}

// TestPrewarmMemoSourceState: after a memo hit, each core's source
// must hand out exactly the items a cold-warmed source hands out next.
// The same key is hit three times, each hit's sources drained in
// between, so a run can never reach back into the memo's stored state.
func TestPrewarmMemoSourceState(t *testing.T) {
	const next = 10_000
	std := standard.Default()
	warm := func(t *testing.T, srcs []cpu.Source) [][]cpu.Instr {
		t.Helper()
		cfg := sim.DefaultFor(std, len(srcs))
		cfg.PrewarmOps = memoOps
		if _, err := sim.New(std, sim.WithConfig(cfg), sim.WithSources(srcs...)); err != nil {
			t.Fatal(err)
		}
		items := make([][]cpu.Instr, len(srcs))
		for i, src := range srcs {
			buf := make([]cpu.Instr, next)
			items[i] = buf[:workload.FillBatch(src, buf)]
		}
		return items
	}
	for _, fam := range memoSourceFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			sim.ResetPrewarmMemo()
			hits0, misses0, _ := sim.PrewarmMemoStats()
			cold := warm(t, fam.build())
			for rep := 1; rep <= 3; rep++ {
				hit := warm(t, fam.build())
				for i := range cold {
					if !slices.Equal(hit[i], cold[i]) {
						t.Fatalf("hit %d: core %d's next %d items differ from the cold-warmed source's", rep, i, next)
					}
				}
			}
			if hits, misses, _ := sim.PrewarmMemoStats(); hits != hits0+3 || misses != misses0+1 {
				t.Fatalf("%d hits, %d misses; want 3 and 1", hits-hits0, misses-misses0)
			}
		})
	}
}

// Command simbench is the repository's reproducible benchmark harness:
// it times a fixed set of synthetic and GAP simulations and writes the
// results as JSON (see doc/PERF.md). CI runs it on every pull request
// and gates on the geomean simulation throughput against the committed
// baseline (BENCH_9.json) via cmd/benchdiff.
//
// Each case is timed in both the fast-forwarding production loop and,
// for the low-utilisation cases, the reference per-cycle loop
// (-tags=slowtick semantics via sim.SlowTick), so the speedup the
// fast-forward path delivers is itself a tracked number.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dramstacks/internal/benchfmt"
	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/exp"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/qos"
	"dramstacks/internal/sim"
	"dramstacks/internal/workload"
)

// benchCase is one workload to measure. run executes a single
// simulation and returns how many memory cycles it covered. speedup
// cases are additionally measured with the reference per-cycle loop to
// report the event-wheel speedup — the low-utilisation cases where
// fast-forwarding dominates, and the saturated/mixed cases where it
// must at least not hurt.
type benchCase struct {
	name    string
	speedup bool
	run     func() (int64, error)
}

func lowUtilSources(cores, workPerOp, branchEvery int, mispredict float64) []cpu.Source {
	var sources []cpu.Source
	for i := 0; i < cores; i++ {
		sources = append(sources, workload.MustSynthetic(workload.SyntheticConfig{
			Pattern:        workload.Sequential,
			WorkPerOp:      workPerOp,
			FootprintBytes: 1 << 14, // cache resident: almost no DRAM traffic
			StrideBytes:    64,
			BranchEvery:    branchEvery,
			MispredictRate: mispredict,
			BaseAddr:       uint64(i) * (256 << 20),
			Seed:           int64(i + 1),
		}))
	}
	return sources
}

func runLowUtil(cores, workPerOp, branchEvery int, mispredict float64, budget int64) (int64, error) {
	sys, err := sim.New(standard.Default(),
		sim.WithSources(lowUtilSources(cores, workPerOp, branchEvery, mispredict)...),
		sim.WithMaxMemCycles(budget),
		sim.WithPrewarmOps(1<<12))
	if err != nil {
		return 0, err
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		return 0, fmt.Errorf("timing violation: %v", res.Violations[0])
	}
	return res.MemCycles, nil
}

// runStandard times a DRAM-bound sequential run on a non-default
// standard from the registry: each preset exercises its own timing set
// (and, for HBM2, the pseudo-channel device fan-out) in the hot path.
func runStandard(name string, cores int, budget int64) (int64, error) {
	sys, err := sim.New(standard.MustLookup(name),
		sim.WithSources(sim.SyntheticSources(workload.Sequential, cores, 0.2)...),
		sim.WithMaxMemCycles(budget),
		sim.WithPrewarmOps(1<<20))
	if err != nil {
		return 0, err
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		return 0, fmt.Errorf("timing violation: %v", res.Violations[0])
	}
	return res.MemCycles, nil
}

func runSynth(spec exp.SynthSpec) (int64, error) {
	res, err := exp.RunSynth(spec)
	if err != nil {
		return 0, err
	}
	return res.MemCycles, nil
}

// runMixed simulates a heterogeneous multicore: half the cores run a
// compute-heavy stream, half a branchy mispredicting one, and all of
// them touch a DRAM-sized footprint so the channel sees real traffic.
// The event loop has to juggle cores whose next events land on
// different cycles — the adversarial case for ticking cores only when
// they are due.
func runMixed(cores int, budget int64) (int64, error) {
	var sources []cpu.Source
	for i := 0; i < cores; i++ {
		cfg := workload.SyntheticConfig{
			Pattern:        workload.Sequential,
			WorkPerOp:      60,
			FootprintBytes: 64 << 20, // larger than LLC: real DRAM traffic
			StrideBytes:    64,
			BaseAddr:       uint64(i) * (256 << 20),
			Seed:           int64(i + 1),
		}
		if i%2 == 1 {
			cfg.WorkPerOp = 0
			cfg.BranchEvery = 3
			cfg.MispredictRate = 0.5
		}
		sources = append(sources, workload.MustSynthetic(cfg))
	}
	sys, err := sim.New(standard.Default(),
		sim.WithSources(sources...),
		sim.WithMaxMemCycles(budget),
		sim.WithPrewarmOps(1<<12))
	if err != nil {
		return 0, err
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		return 0, fmt.Errorf("timing violation: %v", res.Violations[0])
	}
	return res.MemCycles, nil
}

// runQoS times the multi-tenant QoS controller: core 0 runs the
// latency-critical pointer chase with real-time priority, the rest run
// bandwidth hogs — regulated (per-window budgets) or tracking-only —
// exercising the budget bookkeeping, the held-read release path and the
// priority ladder in the scheduler hot path, plus the per-source stack
// accounting either way.
func runQoS(cores int, regulated bool, budget int64) (int64, error) {
	var sources []cpu.Source
	for i := 0; i < cores; i++ {
		cfg := workload.DefaultBWHog()
		if i == 0 {
			cfg = workload.DefaultLatCrit()
		}
		cfg.BaseAddr = uint64(i) * (256 << 20)
		cfg.Seed = int64(i + 1)
		sources = append(sources, workload.MustSynthetic(cfg))
	}
	q := qos.Config{
		Sources: cores,
		Budget:  make([]int, cores),
		RT:      make([]bool, cores),
	}
	if regulated {
		q.Window = 2048
		q.RT[0] = true
		for i := 1; i < cores; i++ {
			q.Budget[i] = 16
		}
	}
	sys, err := sim.New(standard.Default(),
		sim.WithSources(sources...),
		sim.WithQoS(q),
		sim.WithMaxMemCycles(budget),
		sim.WithPrewarmOps(1<<20))
	if err != nil {
		return 0, err
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		return 0, fmt.Errorf("timing violation: %v", res.Violations[0])
	}
	return res.MemCycles, nil
}

func cases() []benchCase {
	return []benchCase{
		// Low-utilisation single-core workloads: the fast-forward
		// target. Cache-resident, so the memory system idles and the
		// fast loop skips almost everything.
		{"lowutil/compute-1c", true, func() (int64, error) {
			return runLowUtil(1, 60, 0, 0, 400_000)
		}},
		{"lowutil/branch-1c", true, func() (int64, error) {
			return runLowUtil(1, 0, 3, 0.5, 400_000)
		}},
		{"lowutil/compute-4c", true, func() (int64, error) {
			return runLowUtil(4, 60, 0, 0, 200_000)
		}},
		// Paper synthetic patterns (Fig. 2 corners): DRAM-bound, little
		// to skip — these track the cost of the per-cycle hot path. The
		// saturated 8-core cases are measured in both modes so the
		// event-wheel's high-utilisation speedup is itself gated.
		{"synth/seq-1c", false, func() (int64, error) {
			return runSynth(exp.SynthSpec{Pattern: workload.Sequential, Cores: 1,
				Budget: 200_000, Prewarm: 1 << 20})
		}},
		{"synth/seq-8c", true, func() (int64, error) {
			return runSynth(exp.SynthSpec{Pattern: workload.Sequential, Cores: 8,
				Budget: 100_000, Prewarm: 1 << 20})
		}},
		{"synth/random-1c", true, func() (int64, error) {
			return runSynth(exp.SynthSpec{Pattern: workload.Random, Cores: 1,
				Budget: 200_000, Prewarm: 1 << 20})
		}},
		{"synth/random-8c", true, func() (int64, error) {
			return runSynth(exp.SynthSpec{Pattern: workload.Random, Cores: 8,
				Budget: 100_000, Prewarm: 1 << 20})
		}},
		// Mixed compute + branch multicore with DRAM traffic: cores with
		// unaligned next-event cycles, the adversarial case for the
		// event loop's per-core scheduling.
		{"mixed/compute-branch-4c", true, func() (int64, error) {
			return runMixed(4, 100_000)
		}},
		// Multi-tenant QoS: the regulated case pays for budget metering,
		// the held-read queue walk and the priority ladder; the
		// tracking-only case isolates the per-source attribution cost.
		// Both are measured in the reference loop too, so QoS overhead in
		// either loop shows up in the gate.
		{"qos/regulated-4c", true, func() (int64, error) {
			return runQoS(4, true, 100_000)
		}},
		{"qos/track-4c", true, func() (int64, error) {
			return runQoS(4, false, 100_000)
		}},
		// Non-default DRAM standards: one DRAM-bound scenario per
		// registry preset beyond the DDR4-2400 baseline, so a timing
		// or topology change in any preset shows up in the gate.
		{"std/ddr5-seq-4c", false, func() (int64, error) {
			return runStandard("ddr5-4800", 4, 100_000)
		}},
		{"std/lpddr5-seq-2c", false, func() (int64, error) {
			return runStandard("lpddr5-6400", 2, 100_000)
		}},
		{"std/hbm2-seq-4c", false, func() (int64, error) {
			return runStandard("hbm2-2000", 4, 100_000)
		}},
		// GAP kernels at reduced scale: realistic phase behavior.
		{"gap/bfs-4c", false, func() (int64, error) {
			spec := exp.DefaultGap("bfs", 4)
			spec.Scale = 15
			spec.Budget = 200_000
			res, err := exp.RunGap(spec)
			if err != nil {
				return 0, err
			}
			return res.MemCycles, nil
		}},
		{"gap/tc-1c", false, func() (int64, error) {
			spec := exp.DefaultGap("tc", 1)
			spec.Scale = 15
			spec.Policy = memctrl.ClosedPage
			spec.Budget = 200_000
			res, err := exp.RunGap(spec)
			if err != nil {
				return 0, err
			}
			return res.MemCycles, nil
		}},
	}
}

// measure times iters back-to-back runs of c once and returns the
// aggregate view of that measurement.
func measure(c benchCase, iters int) (benchfmt.Benchmark, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var cycles int64
	for i := 0; i < iters; i++ {
		// Every run warms its caches cold: without the reset, repeated
		// runs of a case would restore the first run's warm state from
		// the prewarm memo and the synth/* gate would stop timing the
		// functional prewarm it has always covered.
		sim.ResetPrewarmMemo()
		mc, err := c.run()
		if err != nil {
			return benchfmt.Benchmark{}, fmt.Errorf("%s: %w", c.name, err)
		}
		cycles += mc
	}
	dur := time.Since(start)
	runtime.ReadMemStats(&after)
	if dur <= 0 {
		dur = time.Nanosecond
	}
	return benchfmt.Benchmark{
		Name:         c.name,
		Iters:        iters,
		NsPerOp:      dur.Nanoseconds() / int64(iters),
		MemCycles:    cycles / int64(iters),
		CyclesPerSec: float64(cycles) / dur.Seconds(),
		AllocsPerOp:  (after.Mallocs - before.Mallocs) / uint64(iters),
		BytesPerOp:   (after.TotalAlloc - before.TotalAlloc) / uint64(iters),
	}, nil
}

// best runs count measurements and keeps the highest-throughput one
// (minimum wall time), the conventional way to suppress scheduler noise
// in regression gates.
func best(c benchCase, count, iters int, verbose bool) (benchfmt.Benchmark, error) {
	var b benchfmt.Benchmark
	for i := 0; i < count; i++ {
		m, err := measure(c, iters)
		if err != nil {
			return benchfmt.Benchmark{}, err
		}
		if verbose {
			log.Printf("  run %d/%d: %s %.3g cycles/sec", i+1, count, c.name, m.CyclesPerSec)
		}
		if i == 0 || m.CyclesPerSec > b.CyclesPerSec {
			b = m
		}
	}
	return b, nil
}

// parseBenchtime accepts go-test style "3x" as well as a bare count.
func parseBenchtime(s string) (int, error) {
	s = strings.TrimSuffix(s, "x")
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("invalid -benchtime %q (want e.g. 1x)", s)
	}
	return n, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("simbench: ")
	var (
		count     = flag.Int("count", 1, "measurements per case (best is kept)")
		benchtime = flag.String("benchtime", "1x", "iterations per measurement, go-test style (e.g. 3x)")
		pattern   = flag.String("run", "", "regexp selecting case names (default all)")
		out       = flag.String("out", "", "output JSON file (default stdout)")
		verbose   = flag.Bool("v", false, "log every measurement")
	)
	flag.Parse()

	iters, err := parseBenchtime(*benchtime)
	if err != nil {
		log.Fatal(err)
	}
	var re *regexp.Regexp
	if *pattern != "" {
		if re, err = regexp.Compile(*pattern); err != nil {
			log.Fatalf("invalid -run: %v", err)
		}
	}

	// In a -tags=slowtick build the production loop IS the reference
	// loop: a fast/slow comparison would measure the slow loop against
	// itself and record a meaningless speedup of ~1.0. Measure the modes
	// anyway (the gate still wants both rows) but omit speedup_vs_slow.
	slowBuild := sim.SlowTick

	file := benchfmt.File{
		Version:   benchfmt.Version,
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Count:     *count,
		Benchtime: iters,
	}
	for _, c := range cases() {
		if re != nil && !re.MatchString(c.name) {
			continue
		}
		// Untimed warmup run: populates the exp graph cache and the
		// runtime's lazily grown structures.
		if _, err := c.run(); err != nil {
			log.Fatalf("%s: warmup: %v", c.name, err)
		}

		fast, err := best(c, *count, iters, *verbose)
		if err != nil {
			log.Fatal(err)
		}
		fast.Mode = "fast"
		if c.speedup {
			sim.SlowTick = true
			slow, err := best(c, *count, iters, *verbose)
			sim.SlowTick = slowBuild
			if err != nil {
				log.Fatal(err)
			}
			slow.Mode = "slow"
			if !slowBuild {
				fast.SpeedupVsSlow = fast.CyclesPerSec / slow.CyclesPerSec
			}
			file.Benchmarks = append(file.Benchmarks, fast, slow)
			if slowBuild {
				log.Printf("%-20s %12.4g cycles/sec  %8.2f ms/op  (slowtick build: no speedup)",
					c.name, fast.CyclesPerSec, float64(fast.NsPerOp)/1e6)
			} else {
				log.Printf("%-20s %12.4g cycles/sec  %8.2f ms/op  speedup %.2fx",
					c.name, fast.CyclesPerSec, float64(fast.NsPerOp)/1e6, fast.SpeedupVsSlow)
			}
		} else {
			file.Benchmarks = append(file.Benchmarks, fast)
			log.Printf("%-20s %12.4g cycles/sec  %8.2f ms/op",
				c.name, fast.CyclesPerSec, float64(fast.NsPerOp)/1e6)
		}
	}

	var fastRates []float64
	for _, b := range file.Benchmarks {
		if b.Mode == "fast" {
			fastRates = append(fastRates, b.CyclesPerSec)
		}
	}
	file.GeomeanCyclesPerSec = benchfmt.Geomean(fastRates)
	log.Printf("geomean (fast) %.4g cycles/sec over %d cases",
		file.GeomeanCyclesPerSec, len(fastRates))

	enc, err := benchfmt.Encode(file)
	if err != nil {
		log.Fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

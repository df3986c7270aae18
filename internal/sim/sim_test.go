package sim

import (
	"strings"
	"testing"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.CPUMult = 0 },
		func(c *Config) { c.Hier.Cores = 2 },
		func(c *Config) { c.MaxMemCycles = -1 },
		func(c *Config) { c.WarmupMemCycles = c.MaxMemCycles },
		func(c *Config) { c.Core.Width = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultFor(standard.Default(), 1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(standard.Default(), WithConfig(DefaultFor(standard.Default(), 2)), WithSources([]cpu.Source{&workload.Slice{}}...)); err == nil {
		t.Error("source count mismatch accepted")
	}
	// Every controller, boundary and core is an event-wheel actor: the
	// largest machine that fits validates, one more core is rejected
	// with a descriptive error instead of a scheduler panic.
	for _, tc := range []struct {
		channels, sub, cores int
		fits                 bool
	}{{1, 1, 60, true}, {1, 1, 61, false}, {8, 2, 45, true}, {8, 2, 46, false}} {
		cfg := DefaultFor(standard.Default(), tc.cores)
		cfg.Channels, cfg.SubChannels = tc.channels, tc.sub
		err := cfg.Validate()
		if tc.fits && err != nil {
			t.Errorf("%dx%d devices, %d cores: %v", tc.channels, tc.sub, tc.cores, err)
		}
		if !tc.fits && (err == nil || !strings.Contains(err.Error(), "event-wheel actors")) {
			t.Errorf("%dx%d devices, %d cores: want an event-wheel capacity error, got %v", tc.channels, tc.sub, tc.cores, err)
		}
	}
}

func TestFiniteWorkloadRunsToCompletion(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 1)
	cfg.MaxMemCycles = 0 // run until done
	wc := workload.DefaultSequential()
	wc.Ops = 2000
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources([]cpu.Source{workload.MustSynthetic(wc)}...))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations[0])
	}
	if res.CoreStats[0].Loads+res.CoreStats[0].Stores != 2000 {
		t.Errorf("memory ops = %d, want 2000",
			res.CoreStats[0].Loads+res.CoreStats[0].Stores)
	}
	if res.TotalRetired() == 0 || res.MemCycles == 0 {
		t.Error("nothing simulated")
	}
	if err := res.BW.CheckSum(); err != nil {
		t.Error(err)
	}
	for _, cs := range res.CycleStacks {
		if err := cs.CheckSum(); err != nil {
			t.Error(err)
		}
	}
}

func TestStackInvariantsFullSystem(t *testing.T) {
	for _, pat := range []workload.Pattern{workload.Sequential, workload.Random} {
		res := runSyn2(t, pat, 2, 0.2, MapDefault, memctrl.OpenPage, 120_000)
		if res.BW.TotalCycles != 120_000 {
			t.Errorf("%v: accounted %d cycles, want 120000", pat, res.BW.TotalCycles)
		}
		if err := res.BW.CheckSum(); err != nil {
			t.Errorf("%v: %v", pat, err)
		}
		if res.Lat.Reads == 0 {
			t.Errorf("%v: no reads recorded", pat)
		}
	}
}

// TestPaperShapeFig2 asserts the qualitative Fig. 2 findings on reduced
// cycle budgets: proportional sequential scaling into saturation, high
// sequential page-hit rate, near-zero random page-hit rate, and sublinear
// random scaling limited by bank conflicts rather than chip idleness.
func TestPaperShapeFig2(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system shape test skipped in -short")
	}
	budget := int64(250_000)

	seq1 := runSyn2(t, workload.Sequential, 1, 0, MapDefault, memctrl.OpenPage, budget)
	seq2 := runSyn2(t, workload.Sequential, 2, 0, MapDefault, memctrl.OpenPage, budget)
	seq8 := runSyn2(t, workload.Sequential, 8, 0, MapDefault, memctrl.OpenPage, budget)

	b1, b2, b8 := seq1.AchievedGBps(), seq2.AchievedGBps(), seq8.AchievedGBps()
	if b1 < 4 || b1 > 9 {
		t.Errorf("seq 1c = %v GB/s, want 4..9 (paper: 6.4)", b1)
	}
	if r := b2 / b1; r < 1.7 || r > 2.2 {
		t.Errorf("seq 2c/1c = %v, want about 2", r)
	}
	if b8 < 15.5 {
		t.Errorf("seq 8c = %v GB/s, want saturation above 15.5", b8)
	}
	if hr := seq1.CtrlStats.PageHitRate(); hr < 0.97 {
		t.Errorf("seq page hit rate = %v, want > 0.97 (paper: 99%%)", hr)
	}
	// At saturation there is no idle left and queueing dominates latency.
	g8 := seq8.BWGBps()
	if g8[stacks.BWIdle] > 0.5 {
		t.Errorf("seq 8c idle = %v GB/s, want about 0", g8[stacks.BWIdle])
	}
	l8 := seq8.LatNS()
	if l8[stacks.LatQueue] < l8[stacks.LatBaseCtrl]+l8[stacks.LatBaseDRAM] {
		t.Errorf("seq 8c queue latency %v should dominate base %v",
			l8[stacks.LatQueue], l8[stacks.LatBaseCtrl]+l8[stacks.LatBaseDRAM])
	}

	rnd1 := runSyn2(t, workload.Random, 1, 0, MapDefault, memctrl.OpenPage, budget)
	rnd8 := runSyn2(t, workload.Random, 8, 0, MapDefault, memctrl.OpenPage, budget)
	if hr := rnd1.CtrlStats.PageHitRate(); hr > 0.05 {
		t.Errorf("random page hit rate = %v, want about 0", hr)
	}
	r1, r8 := rnd1.AchievedGBps(), rnd8.AchievedGBps()
	if r1 > b1/2 {
		t.Errorf("random 1c = %v GB/s should be well below sequential %v", r1, b1)
	}
	if scale := r8 / r1; scale < 4 || scale > 7.5 {
		t.Errorf("random 8c/1c = %v, want sublinear 4..7.5 (paper: 6.4)", scale)
	}
	// Paper: at 8 cores random, no idle component; pre/act visible.
	gr8 := rnd8.BWGBps()
	if gr8[stacks.BWIdle] > 0.5 {
		t.Errorf("random 8c idle = %v, want about 0", gr8[stacks.BWIdle])
	}
	if gr8[stacks.BWPrecharge]+gr8[stacks.BWActivate] < 1 {
		t.Errorf("random 8c pre+act = %v, want visible (> 1 GB/s)",
			gr8[stacks.BWPrecharge]+gr8[stacks.BWActivate])
	}
	// Random latency is dominated by pre/act at low load (page misses).
	lr1 := rnd1.LatNS()
	if lr1[stacks.LatPreAct] < 15 {
		t.Errorf("random 1c act/pre latency = %v ns, want > 15 (tRP+tRCD = 26.7)",
			lr1[stacks.LatPreAct])
	}
}

// TestPaperShapeFig3 asserts the Fig. 3 direction: stores help the random
// pattern monotonically; on the sequential pattern they cost read
// bandwidth and create writeburst latency.
func TestPaperShapeFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system shape test skipped in -short")
	}
	budget := int64(250_000)
	r0 := runSyn2(t, workload.Random, 1, 0, MapDefault, memctrl.OpenPage, budget)
	r5 := runSyn2(t, workload.Random, 1, 0.5, MapDefault, memctrl.OpenPage, budget)
	if r5.AchievedGBps() <= r0.AchievedGBps() {
		t.Errorf("random w50 = %v GB/s not above w0 = %v",
			r5.AchievedGBps(), r0.AchievedGBps())
	}
	if r5.BWGBps()[stacks.BWWrite] <= 0 {
		t.Error("random w50 has no write bandwidth")
	}

	s0 := runSyn2(t, workload.Sequential, 1, 0, MapDefault, memctrl.OpenPage, budget)
	s5 := runSyn2(t, workload.Sequential, 1, 0.5, MapDefault, memctrl.OpenPage, budget)
	if s5.BWGBps()[stacks.BWRead] >= s0.BWGBps()[stacks.BWRead] {
		t.Errorf("seq w50 read BW %v not below w0 %v",
			s5.BWGBps()[stacks.BWRead], s0.BWGBps()[stacks.BWRead])
	}
	l5 := s5.LatNS()
	if l5[stacks.LatWriteBurst] < 2 {
		t.Errorf("seq w50 writeburst latency = %v ns, want visible", l5[stacks.LatWriteBurst])
	}
	if s5.Lat.AvgTotalNS(s5.Cfg.Geom) <= s0.Lat.AvgTotalNS(s0.Cfg.Geom) {
		t.Error("seq w50 latency not above w0")
	}
}

// TestPaperShapeFig4 asserts the Fig. 4 direction: the closed page policy
// hurts the sequential pattern (queueing, not pre/act, grows) and helps
// the random pattern (pre/act latency roughly halves).
func TestPaperShapeFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system shape test skipped in -short")
	}
	budget := int64(250_000)
	so := runSyn2(t, workload.Sequential, 2, 0, MapDefault, memctrl.OpenPage, budget)
	sc := runSyn2(t, workload.Sequential, 2, 0, MapDefault, memctrl.ClosedPage, budget)
	if sc.AchievedGBps() >= so.AchievedGBps() {
		t.Errorf("seq closed %v GB/s not below open %v", sc.AchievedGBps(), so.AchievedGBps())
	}
	lo, lc := so.LatNS(), sc.LatNS()
	if lc[stacks.LatQueue] <= lo[stacks.LatQueue] {
		t.Error("seq closed queue latency not above open")
	}
	qGrow := lc[stacks.LatQueue] - lo[stacks.LatQueue]
	paGrow := lc[stacks.LatPreAct] - lo[stacks.LatPreAct]
	if qGrow <= paGrow {
		t.Errorf("seq closed: queue growth %v should exceed pre/act growth %v (paper §VII-C)",
			qGrow, paGrow)
	}

	ro := runSyn2(t, workload.Random, 2, 0, MapDefault, memctrl.OpenPage, budget)
	rc := runSyn2(t, workload.Random, 2, 0, MapDefault, memctrl.ClosedPage, budget)
	if rc.AchievedGBps() <= ro.AchievedGBps() {
		t.Errorf("random closed %v GB/s not above open %v", rc.AchievedGBps(), ro.AchievedGBps())
	}
	lro, lrc := ro.LatNS(), rc.LatNS()
	if lrc[stacks.LatPreAct] >= lro[stacks.LatPreAct]*0.7 {
		t.Errorf("random closed act/pre = %v ns, want well below open %v (precharge hidden)",
			lrc[stacks.LatPreAct], lro[stacks.LatPreAct])
	}
}

// TestPaperShapeFig6 asserts the Fig. 6 direction: cache-line interleaving
// raises bandwidth and cuts queue+writeburst latency at the cost of
// pre/act for the two bank-conflict cases.
func TestPaperShapeFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system shape test skipped in -short")
	}
	budget := int64(250_000)
	def := runSyn2(t, workload.Sequential, 1, 0.5, MapDefault, memctrl.OpenPage, budget)
	inter := runSyn2(t, workload.Sequential, 1, 0.5, MapInterleaved, memctrl.OpenPage, budget)
	if inter.AchievedGBps() <= def.AchievedGBps() {
		t.Errorf("seq w50 int %v GB/s not above def %v",
			inter.AchievedGBps(), def.AchievedGBps())
	}
	ld, li := def.LatNS(), inter.LatNS()
	if li[stacks.LatQueue]+li[stacks.LatWriteBurst] >= ld[stacks.LatQueue]+ld[stacks.LatWriteBurst] {
		t.Error("interleaving did not reduce queue+writeburst latency")
	}
	if li[stacks.LatPreAct] <= ld[stacks.LatPreAct] {
		t.Error("interleaving did not increase pre/act latency (page locality lost)")
	}

	d2 := runSyn2(t, workload.Sequential, 2, 0, MapDefault, memctrl.ClosedPage, budget)
	i2 := runSyn2(t, workload.Sequential, 2, 0, MapInterleaved, memctrl.ClosedPage, budget)
	if i2.AchievedGBps() <= d2.AchievedGBps() {
		t.Errorf("seq 2c closed int %v GB/s not above def %v",
			i2.AchievedGBps(), d2.AchievedGBps())
	}
}

func TestThroughTimeSamplesCoverRun(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 1)
	cfg.MaxMemCycles = 100_000
	cfg.SampleInterval = 20_000
	wc := workload.DefaultSequential()
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources([]cpu.Source{workload.MustSynthetic(wc)}...))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(res.BWSamples) != 5 {
		t.Fatalf("bw samples = %d, want 5", len(res.BWSamples))
	}
	var covered int64
	for _, s := range res.BWSamples {
		covered += s.BW.TotalCycles
		if err := s.BW.CheckSum(); err != nil {
			t.Error(err)
		}
	}
	if covered != 100_000 {
		t.Errorf("samples cover %d cycles, want 100000", covered)
	}
	if len(res.CycleSamples) != 5 {
		t.Errorf("cycle samples = %d, want 5", len(res.CycleSamples))
	}
}

func TestWarmupExcludedFromStacks(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 1)
	cfg.MaxMemCycles = 60_000
	cfg.WarmupMemCycles = 20_000
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources(SyntheticSources(workload.Sequential, 1, 0)...))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.BW.TotalCycles != 40_000 {
		t.Errorf("post-warmup stack covers %d cycles, want 40000", res.BW.TotalCycles)
	}
	if err := res.BW.CheckSum(); err != nil {
		t.Error(err)
	}
}

func TestPrewarmFillsCaches(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 1)
	cfg.MaxMemCycles = 50_000
	cfg.PrewarmOps = 1 << 19
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources(SyntheticSources(workload.Sequential, 1, 0.5)...))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	// With warmed caches and 50% stores, dirty evictions reach DRAM
	// immediately.
	if res.CtrlStats.IssuedWrites == 0 {
		t.Error("no DRAM writes despite warmed dirty working set")
	}
}

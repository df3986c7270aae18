package sim

import (
	"testing"

	"dramstacks/internal/cpu"
	"dramstacks/internal/cyclestack"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

// bankHammer emits loads that ping-pong between two rows of one bank —
// the worst case for an open-page controller (every access conflicts).
type bankHammer struct {
	lcg uint64
}

func (b *bankHammer) Next() (cpu.Instr, bool) {
	// Rows of bank 0 are 128 KB apart in the default mapping (the 8 KB
	// page times 16 banks). Random row over a 4096-row (32 MB, beyond
	// the LLC) region of the single bank, random column: every DRAM
	// access conflicts with whatever row the bank has open.
	b.lcg = b.lcg*6364136223846793005 + 1442695040888963407
	row := (b.lcg >> 40) % 4096
	col := (b.lcg >> 33) % 128
	return cpu.Instr{Work: 4, Kind: cpu.KindLoad, Addr: row*128*1024 + col*64}, true
}

// TestBankHammerStress: all cores fight over one bank with conflicting
// rows. The system must not deadlock or starve, the stacks must keep
// their invariants, and the signature must be the paper's bank-conflict
// one: a large bank-idle component with high queueing latency.
func TestBankHammerStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short")
	}
	cfg := DefaultFor(standard.Default(), 4)
	cfg.MaxMemCycles = 150_000
	var sources []cpu.Source
	for i := 0; i < 4; i++ {
		sources = append(sources, &bankHammer{lcg: uint64(i + 1)})
	}
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources(sources...))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		t.Fatalf("timing violation: %v", res.Violations[0])
	}
	if err := res.BW.CheckSum(); err != nil {
		t.Fatal(err)
	}
	if res.CtrlStats.IssuedReads == 0 {
		t.Fatal("hammer starved completely")
	}
	// Random rows of one bank: page hits collapse...
	if hr := res.CtrlStats.PageHitRate(); hr > 0.3 {
		t.Errorf("page hit rate = %v, want low under random-row hammering", hr)
	}
	// ...and the conflict signature appears: with a single busy bank,
	// bank-idle is the dominant lost-bandwidth component.
	g := res.BWGBps()
	if g[stacks.BWBankIdle] < 4 {
		t.Errorf("bank-idle = %v GB/s, want the dominant loss", g[stacks.BWBankIdle])
	}
	l := res.LatNS()
	if l[stacks.LatPreAct]+l[stacks.LatQueue] < 20 {
		t.Errorf("pre/act+queue latency = %v ns, want large under conflicts",
			l[stacks.LatPreAct]+l[stacks.LatQueue])
	}
}

// TestTinyQueuesNoDeadlock: pathologically small controller queues with
// heavy multi-core traffic must only throttle, never wedge.
func TestTinyQueuesNoDeadlock(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 4)
	cfg.Ctrl.ReadQueueCap = 4
	cfg.Ctrl.WriteQueueCap = 4
	cfg.Ctrl.WriteHi = 3
	cfg.Ctrl.WriteLo = 1
	cfg.MaxMemCycles = 80_000
	cfg.PrewarmOps = 1 << 19 // dirty working set: evictions write back
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources(SyntheticSources(workload.Random, 4, 0.3)...))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		t.Fatalf("timing violation: %v", res.Violations[0])
	}
	if res.CtrlStats.IssuedReads == 0 || res.CtrlStats.IssuedWrites == 0 {
		t.Errorf("tiny queues starved: %d reads / %d writes",
			res.CtrlStats.IssuedReads, res.CtrlStats.IssuedWrites)
	}
	if err := res.BW.CheckSum(); err != nil {
		t.Error(err)
	}
}

// TestSingleLineHammer: every core loads the same line over and over —
// after the first fill everything hits in L1 and DRAM goes idle.
func TestSingleLineHammer(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 2)
	cfg.MaxMemCycles = 30_000
	src := func() cpu.Source {
		return &workload.Slice{Instrs: repeatLoad(0x1000, 5000)}
	}
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources([]cpu.Source{src(), src()}...))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.CtrlStats.IssuedReads > 4 {
		t.Errorf("issued %d DRAM reads for one hot line, want ~1", res.CtrlStats.IssuedReads)
	}
	if idle := res.BW.Fraction(stacks.BWIdle); idle < 0.9 {
		t.Errorf("idle fraction = %v, want nearly all", idle)
	}
}

func repeatLoad(addr uint64, n int) []cpu.Instr {
	out := make([]cpu.Instr, n)
	for i := range out {
		out[i] = cpu.Instr{Work: 2, Kind: cpu.KindLoad, Addr: addr}
	}
	return out
}

// TestStreamTriadShape: triad's DRAM traffic is 3:1 reads to writes
// (two source arrays plus the destination's read-for-ownership versus
// its writeback), and the write bandwidth is substantial.
func TestStreamTriadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system test skipped in -short")
	}
	cfg := DefaultFor(standard.Default(), 4)
	cfg.MaxMemCycles = 150_000
	cfg.PrewarmOps = 1 << 19
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources(workload.StreamSources(workload.StreamTriad, 4)...))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		t.Fatal(res.Violations[0])
	}
	r, w := res.CtrlStats.IssuedReads, res.CtrlStats.IssuedWrites
	if w == 0 {
		t.Fatal("triad produced no DRAM writes")
	}
	ratio := float64(r) / float64(w)
	if ratio < 2.5 || ratio > 3.6 {
		t.Errorf("read:write = %.2f, want about 3 (b, c, RFO(a) : writeback(a))", ratio)
	}
	if res.BWGBps()[stacks.BWWrite] < 1 {
		t.Errorf("write bandwidth = %v GB/s, want substantial", res.BWGBps()[stacks.BWWrite])
	}
}

// TestInterferenceShowsInVictimCycleStack: a pointer-chasing "victim"
// core running alone has almost pure dram-latency stalls; adding three
// streaming aggressor cores pushes its stalls into dram-queue — the
// per-core cycle stacks attribute the interference to queueing, which is
// how the paper's stacks separate "memory is slow" from "memory is
// contended".
func TestInterferenceShowsInVictimCycleStack(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system test skipped in -short")
	}
	victim := func() cpu.Source {
		wc := workload.DefaultRandom()
		wc.BaseAddr = 0
		return workload.MustSynthetic(wc)
	}
	queueShare := func(sources []cpu.Source) float64 {
		cfg := DefaultFor(standard.Default(), len(sources))
		cfg.MaxMemCycles = 150_000
		sys, err := New(standard.Default(), WithConfig(cfg), WithSources(sources...))
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run()
		if len(res.Violations) > 0 {
			t.Fatal(res.Violations[0])
		}
		cs := res.CycleStacks[0] // the victim is always core 0
		dram := cs.Cycles[cyclestack.DramLatency] + cs.Cycles[cyclestack.DramQueue]
		if dram == 0 {
			t.Fatal("victim had no dram stalls")
		}
		return cs.Cycles[cyclestack.DramQueue] / dram
	}

	alone := queueShare([]cpu.Source{victim()})

	mixed := []cpu.Source{victim()}
	for i := 1; i < 4; i++ {
		wc := workload.DefaultSequential()
		wc.BaseAddr = uint64(i)*(512<<20) + uint64(i)*8192
		wc.Seed = int64(i)
		mixed = append(mixed, workload.MustSynthetic(wc))
	}
	contended := queueShare(mixed)

	if alone > 0.25 {
		t.Errorf("victim alone has queue share %.2f, want small", alone)
	}
	if contended < alone+0.1 {
		t.Errorf("contended queue share %.2f not clearly above alone %.2f", contended, alone)
	}
}

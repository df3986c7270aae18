package sim

import (
	"reflect"
	"testing"

	"dramstacks/internal/cache"
	"dramstacks/internal/cpu"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/workload"
)

// Every registered standard must run a real workload through the full
// machine with the command-legality verifier on, produce zero timing
// violations, and keep the stack invariants — whatever its bank, group
// or (pseudo-)channel counts. This is the registry-wide legality gate
// the ISSUE asks for: a preset that passes Timing.Validate but encodes
// an inconsistent rule set would surface here.
func TestEveryStandardRunsVerified(t *testing.T) {
	for _, std := range standard.All() {
		std := std
		t.Run(std.Name, func(t *testing.T) {
			const budget = 60_000
			cfg := DefaultFor(std, 2)
			cfg.MaxMemCycles = budget
			cfg.PrewarmOps = 1 << 18
			if !cfg.Verify {
				t.Fatal("DefaultFor disabled the verifier")
			}
			sys, err := New(standard.Default(), WithConfig(cfg), WithSources(SyntheticSources(workload.Sequential, 2, 0.2)...))
			if err != nil {
				t.Fatal(err)
			}
			res := sys.Run()
			if len(res.Violations) > 0 {
				t.Fatalf("timing violation: %v", res.Violations[0])
			}

			devices := std.SubChannels
			if res.Channels != devices {
				t.Fatalf("devices = %d, want %d", res.Channels, devices)
			}
			if res.BW.TotalCycles != int64(devices)*budget {
				t.Errorf("stack covers %d cycles, want %d", res.BW.TotalCycles, int64(devices)*budget)
			}
			if err := res.BW.CheckSum(); err != nil {
				t.Errorf("bandwidth stack broken: %v", err)
			}
			if res.BW.Banks != std.Geometry.TotalBanks() {
				t.Errorf("stack banks = %d, want the per-device %d", res.BW.Banks, std.Geometry.TotalBanks())
			}
			if got, peak := res.AchievedGBps(), res.PeakGBps(); got <= 0 || got > peak+1e-9 {
				t.Errorf("achieved %.3f GB/s outside (0, peak %.3f]", got, peak)
			}
			// The GB/s conversion must sum to the standard's peak across
			// all devices, however many there are.
			var total float64
			for _, v := range res.BWGBps() {
				total += v
			}
			if want := std.Geometry.PeakBandwidthGBs() * float64(devices); total-want > 1e-6 || want-total > 1e-6 {
				t.Errorf("components sum to %.4f GB/s, want peak %.4f", total, want)
			}
			if res.CtrlStats.IssuedReads == 0 {
				t.Error("no reads issued")
			}
		})
	}
}

// DDR4-2400 routed through the registry (the new sim.Default path) must
// reproduce the seed's hand-built configuration exactly — same Config,
// and a field-by-field identical Result.
func TestRegistryDDR4MatchesSeedConfig(t *testing.T) {
	// The seed's sim.Default, inlined: the literal the registry replaced.
	seedDefault := func(cores int) Config {
		geo, tim := dram.DDR4_2400()
		return Config{
			Cores:        cores,
			CPUMult:      3,
			Core:         cpu.DefaultConfig(),
			Hier:         cache.DefaultHierConfig(cores),
			Ctrl:         memctrl.DefaultConfig(),
			Geom:         geo,
			Tim:          tim,
			MaxMemCycles: 2_000_000,
			Verify:       true,
		}
	}
	if got, want := DefaultFor(standard.Default(), 2), seedDefault(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry default config diverged:\n got %+v\nwant %+v", got, want)
	}

	run := func(cfg Config) *Result {
		cfg.MaxMemCycles = 40_000
		cfg.SampleInterval = 10_000
		cfg.PrewarmOps = 1 << 18
		sys, err := New(standard.Default(), WithConfig(cfg), WithSources(SyntheticSources(workload.Sequential, 2, 0.2)...))
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run()
	}
	reg := run(DefaultFor(standard.Default(), 2))
	seed := run(seedDefault(2))

	// Field-by-field: every reported quantity must match exactly.
	if reg.MemCycles != seed.MemCycles {
		t.Errorf("MemCycles %d != %d", reg.MemCycles, seed.MemCycles)
	}
	if reg.Channels != seed.Channels {
		t.Errorf("Channels %d != %d", reg.Channels, seed.Channels)
	}
	if reg.BW != seed.BW {
		t.Errorf("BW stack diverged:\n got %+v\nwant %+v", reg.BW, seed.BW)
	}
	if reg.Lat != seed.Lat {
		t.Errorf("Lat stack diverged:\n got %+v\nwant %+v", reg.Lat, seed.Lat)
	}
	if reg.CtrlStats != seed.CtrlStats {
		t.Errorf("CtrlStats diverged:\n got %+v\nwant %+v", reg.CtrlStats, seed.CtrlStats)
	}
	if reg.DevStats != seed.DevStats {
		t.Errorf("DevStats diverged:\n got %+v\nwant %+v", reg.DevStats, seed.DevStats)
	}
	if reg.LLCStats != seed.LLCStats {
		t.Errorf("LLCStats diverged:\n got %+v\nwant %+v", reg.LLCStats, seed.LLCStats)
	}
	if reg.HierStats != seed.HierStats {
		t.Errorf("HierStats diverged:\n got %+v\nwant %+v", reg.HierStats, seed.HierStats)
	}
	if !reflect.DeepEqual(reg.CoreStats, seed.CoreStats) {
		t.Errorf("CoreStats diverged")
	}
	if !reflect.DeepEqual(reg.CycleStacks, seed.CycleStacks) {
		t.Errorf("CycleStacks diverged")
	}
	if !reflect.DeepEqual(reg.BWSamples, seed.BWSamples) {
		t.Errorf("BWSamples diverged")
	}
	if !reflect.DeepEqual(reg.LatHist, seed.LatHist) {
		t.Errorf("LatHist diverged")
	}
	if !reflect.DeepEqual(reg, seed) {
		t.Error("Result diverged outside the fields above")
	}
}

// HBM2's pseudo-channels must behave as two independently timed devices
// per addressed channel: doubled device count, doubled peak, and traffic
// on both pseudo-channels (the pc bit is the lowest channel bit, so
// consecutive lines alternate).
func TestHBMPseudoChannels(t *testing.T) {
	std := standard.MustLookup("hbm2-2000")
	cfg := DefaultFor(std, 4)
	cfg.Channels = 2
	cfg.MaxMemCycles = 60_000
	cfg.PrewarmOps = 1 << 18
	if cfg.SubChannels != 2 {
		t.Fatalf("SubChannels = %d, want 2", cfg.SubChannels)
	}
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources(SyntheticSources(workload.Sequential, 4, 0)...))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		t.Fatalf("timing violation: %v", res.Violations[0])
	}
	if res.Channels != 4 {
		t.Fatalf("devices = %d, want 4 (2 channels x 2 pseudo-channels)", res.Channels)
	}
	if got, want := res.PeakGBps(), 4*16.0; got != want {
		t.Errorf("peak = %g GB/s, want %g", got, want)
	}
	if len(res.PerChannelStats) != 4 {
		t.Fatalf("per-device stats: %d entries", len(res.PerChannelStats))
	}
	for pc, st := range res.PerChannelStats {
		if st.IssuedReads == 0 {
			t.Errorf("pseudo-channel %d starved", pc)
		}
	}
}

func TestSubChannelValidation(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 1)
	cfg.SubChannels = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative sub-channels accepted")
	}
	cfg.SubChannels = 5
	if err := cfg.Validate(); err == nil {
		t.Error("too many sub-channels accepted")
	}
	cfg.SubChannels = 4
	cfg.Channels = 8
	if err := cfg.Validate(); err == nil {
		t.Error("32 devices accepted, want at most 16")
	}
	cfg.Channels = 4
	if err := cfg.Validate(); err != nil {
		t.Errorf("16 devices rejected: %v", err)
	}
}

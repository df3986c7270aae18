package sim

import (
	"testing"

	"dramstacks/internal/dram/standard"
	"dramstacks/internal/workload"
)

// TestTwoChannelsDoubleSequentialBandwidth: a saturating multi-core
// sequential workload on two channels should push well past one
// channel's peak, and the aggregate stack must keep its invariants.
func TestTwoChannelsDoubleSequentialBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system test skipped in -short")
	}
	run := func(channels int) *Result {
		cfg := DefaultFor(standard.Default(), 8)
		cfg.Channels = channels
		cfg.MaxMemCycles = 200_000
		cfg.PrewarmOps = 1 << 20
		sys, err := New(standard.Default(), WithConfig(cfg), WithSources(SyntheticSources(workload.Sequential, 8, 0)...))
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run()
		if len(res.Violations) > 0 {
			t.Fatalf("%d channels: %v", channels, res.Violations[0])
		}
		return res
	}
	one := run(1)
	two := run(2)

	if two.Channels != 2 || one.Channels != 1 {
		t.Fatalf("channel counts = %d/%d", one.Channels, two.Channels)
	}
	if two.PeakGBps() != 2*one.PeakGBps() {
		t.Errorf("peak = %v, want double %v", two.PeakGBps(), one.PeakGBps())
	}
	b1, b2 := one.AchievedGBps(), two.AchievedGBps()
	if b2 < b1*1.4 {
		t.Errorf("two channels = %.2f GB/s, want well above one channel's %.2f", b2, b1)
	}
	if b2 > one.PeakGBps()+1e-9 && b2 <= two.PeakGBps() {
		// Exceeded a single channel's physical limit: conclusive.
	} else if b2 <= one.PeakGBps() {
		t.Logf("note: 2-channel bandwidth %.2f below single-channel peak (core-bound workload)", b2)
	}

	// Aggregate stack invariants: total cycles = channels × window.
	if two.BW.TotalCycles != 2*200_000 {
		t.Errorf("aggregate cycles = %d, want %d", two.BW.TotalCycles, 2*200_000)
	}
	if err := two.BW.CheckSum(); err != nil {
		t.Error(err)
	}
	if len(two.PerChannelBW) != 2 || len(two.PerChannelStats) != 2 {
		t.Fatalf("per-channel breakdown missing: %d/%d",
			len(two.PerChannelBW), len(two.PerChannelStats))
	}
	// Per-channel stacks sum to the aggregate.
	var sum float64
	for _, ch := range two.PerChannelBW {
		if err := ch.CheckSum(); err != nil {
			t.Error(err)
		}
		sum += ch.AchievedGBps(two.Cfg.Geom)
	}
	if diff := sum - b2; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("per-channel sum %.4f != aggregate %.4f", sum, b2)
	}
	// With line interleaving, traffic splits roughly evenly.
	r0 := two.PerChannelStats[0].IssuedReads
	r1 := two.PerChannelStats[1].IssuedReads
	if r0 == 0 || r1 == 0 {
		t.Fatalf("channel starved: %d/%d reads", r0, r1)
	}
	ratio := float64(r0) / float64(r1)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("channel imbalance: %d vs %d reads", r0, r1)
	}
	// The BW components sum to the doubled peak.
	g := two.BWGBps()
	var total float64
	for _, v := range g {
		total += v
	}
	if d := total - two.PeakGBps(); d > 1e-6 || d < -1e-6 {
		t.Errorf("components sum to %.4f, want %.4f", total, two.PeakGBps())
	}
}

func TestMultiChannelSamplesAggregate(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 2)
	cfg.Channels = 2
	cfg.MaxMemCycles = 60_000
	cfg.SampleInterval = 20_000
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources(SyntheticSources(workload.Sequential, 2, 0)...))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(res.BWSamples) != 3 {
		t.Fatalf("samples = %d, want 3", len(res.BWSamples))
	}
	for _, s := range res.BWSamples {
		if s.BW.TotalCycles != 2*20_000 {
			t.Errorf("sample covers %d cycles, want 40000 (2 channels)", s.BW.TotalCycles)
		}
		if err := s.BW.CheckSum(); err != nil {
			t.Error(err)
		}
	}
}

func TestChannelsValidation(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 1)
	cfg.Channels = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative channels accepted")
	}
	cfg.Channels = 9
	if err := cfg.Validate(); err == nil {
		t.Error("too many channels accepted")
	}
}

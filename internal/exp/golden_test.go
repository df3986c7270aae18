package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"dramstacks/internal/sim"
)

// TestSweepJSONFastSlowIdentical is the end-to-end golden-equivalence
// gate for idle-cycle fast-forwarding: the full Fig. 2/Fig. 4 grid
// (sequential/random × 1..8 cores × open/closed pages, reduced budget)
// must serialize to byte-identical SweepJSON — spec hashes, stacks,
// through-time samples and extrapolations — whether the simulator runs
// the fast-forwarding loop or the reference per-cycle loop.
func TestSweepJSONFastSlowIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid equivalence sweep skipped in -short")
	}
	sw := Sweep{
		Base: Spec{Workload: "seq", Budget: 30_000, Sample: 10_000},
		Axes: map[string][]any{
			"workload": {"seq", "random"},
			"cores":    {1, 2, 4, 8},
			"policy":   {"open", "closed"},
		},
	}
	run := func(slow bool) []byte {
		t.Helper()
		was := sim.SlowTick
		sim.SlowTick = slow
		defer func() { sim.SlowTick = was }()
		res, err := RunSweep(context.Background(), sw, SweepOptions{})
		if err != nil {
			t.Fatalf("slow=%v: %v", slow, err)
		}
		doc, err := res.ToJSON()
		if err != nil {
			t.Fatalf("slow=%v: %v", slow, err)
		}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("slow=%v: %v", slow, err)
		}
		return data
	}
	fast := run(false)
	slow := run(true)
	if bytes.Equal(fast, slow) {
		return
	}
	i := 0
	for i < len(fast) && i < len(slow) && fast[i] == slow[i] {
		i++
	}
	lo, hi := i-80, i+80
	if lo < 0 {
		lo = 0
	}
	clip := func(b []byte) []byte {
		if hi > len(b) {
			return b[lo:]
		}
		return b[lo:hi]
	}
	t.Errorf("SweepJSON differs at byte %d:\n fast: ...%s...\n slow: ...%s...",
		i, clip(fast), clip(slow))
}

// TestLoopMixFastSlowIdentical points the two-loop oracle at the traffic
// the service's closed-loop benchmark serves: STREAM mixes with
// sampling, QoS tenants under both regulation policies, latency-critical
// pairs, a sampled two-channel mix and the GAP kernels. Each shape runs
// on a reduced budget and must encode to byte-identical ResultJSON in
// the fast loop and the reference per-cycle loop.
func TestLoopMixFastSlowIdentical(t *testing.T) {
	shapes := []Spec{
		{Workload: "seq,random", Cores: 2, Budget: 20_000},
		{Workload: "copy,triad", Cores: 2, Budget: 15_000, Sample: 4_000},
		{Workload: "strided,seq,random,copy", Cores: 4, Budget: 8_000},
		{Workload: "latcrit,bwhog", Cores: 2, Budget: 20_000, QoS: "win=2048,cap=1:16,rt=0"},
		{Workload: "latcrit,bwhog", Cores: 4, Budget: 10_000, QoS: "win=4096,cap=1:8,rt=0"},
		{Workload: "latcrit,latcrit", Cores: 2, Budget: 40_000},
		{Workload: "latcrit,latcrit", Cores: 1, Budget: 40_000},
		{Workload: "add,scale", Cores: 2, Budget: 15_000, Sample: 2_000},
		{Workload: "seq,random", Cores: 4, Channels: 2, Budget: 10_000, Sample: 2_500},
		{Workload: "bfs", Cores: 2, Scale: 10, Budget: 30_000},
		{Workload: "pr", Cores: 2, Scale: 10, Budget: 15_000},
		{Workload: "tc", Cores: 2, Scale: 10, Budget: 15_000},
	}
	run := func(spec Spec, slow bool) []byte {
		t.Helper()
		was := sim.SlowTick
		sim.SlowTick = slow
		defer func() { sim.SlowTick = was }()
		res, err := RunSpec(context.Background(), spec, RunOptions{})
		if err != nil {
			t.Fatalf("%s slow=%v: %v", spec.Label(), slow, err)
		}
		data, err := ResultJSON(spec.Normalized(), res)
		if err != nil {
			t.Fatalf("%s slow=%v: %v", spec.Label(), slow, err)
		}
		return data
	}
	for _, spec := range shapes {
		fast, slow := run(spec, false), run(spec, true)
		if !bytes.Equal(fast, slow) {
			t.Errorf("%s: ResultJSON differs between the fast and the reference loop:\n fast: %s\n slow: %s",
				spec.Label(), fast, slow)
		}
	}
}

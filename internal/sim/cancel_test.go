package sim

import (
	"context"
	"testing"
	"time"

	"dramstacks/internal/dram/standard"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

// TestRunContextCancel proves a cancelled run returns promptly with a
// partial, warmup-consistent result: the budget is far larger than what
// could simulate within the test deadline, the stacks cover only the
// post-warmup cycles actually executed, and the bandwidth-stack invariant
// (components sum to total cycles) still holds.
func TestRunContextCancel(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 1)
	cfg.MaxMemCycles = 1 << 40 // would take hours; cancellation must cut it short
	cfg.WarmupMemCycles = 5_000
	cfg.SampleInterval = 10_000
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources(SyntheticSources(workload.Sequential, 1, 0)...))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)

	start := time.Now()
	resCh := make(chan *Result, 1)
	go func() { resCh <- sys.RunContext(ctx) }()
	var res *Result
	select {
	case res = <-resCh:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return within 30s")
	}
	elapsed := time.Since(start)

	if !res.Cancelled {
		t.Error("Result.Cancelled = false, want true")
	}
	if res.MemCycles >= cfg.MaxMemCycles {
		t.Errorf("run consumed the whole %d-cycle budget", cfg.MaxMemCycles)
	}
	if res.MemCycles <= cfg.WarmupMemCycles {
		t.Errorf("run stopped inside warmup after %d cycles", res.MemCycles)
	}
	// Warmup consistency: the reported stack covers exactly the
	// post-warmup interval and still satisfies the sum invariant.
	if got, want := res.BW.TotalCycles, res.MemCycles-cfg.WarmupMemCycles; got != want {
		t.Errorf("BW.TotalCycles = %d, want %d (MemCycles - warmup)", got, want)
	}
	if err := res.BW.CheckSum(); err != nil {
		t.Errorf("partial bandwidth stack inconsistent: %v", err)
	}
	if len(res.BWSamples) == 0 {
		t.Error("no through-time samples despite SampleInterval")
	}
	t.Logf("cancelled after %d mem cycles in %v", res.MemCycles, elapsed)
}

// TestRunContextNilDoneFinishes checks the uncancellable context path is
// unaffected: Run (background context) completes on the cycle budget.
func TestRunContextCompletesOnBudget(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 1)
	cfg.MaxMemCycles = 20_000
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources(SyntheticSources(workload.Sequential, 1, 0)...))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.Cancelled {
		t.Error("uncancelled run reports Cancelled")
	}
	if res.MemCycles != cfg.MaxMemCycles {
		t.Errorf("MemCycles = %d, want %d", res.MemCycles, cfg.MaxMemCycles)
	}
}

// TestSampleFuncStreams checks a live sample observer sees every sample
// the final result carries, in order.
func TestSampleFuncStreams(t *testing.T) {
	cfg := DefaultFor(standard.Default(), 1)
	cfg.MaxMemCycles = 50_000
	cfg.SampleInterval = 10_000
	var live []int64
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources(SyntheticSources(workload.Sequential, 1, 0)...),
		WithSampleFunc(func(s stacks.Sample) { live = append(live, s.End) }))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(live) != len(res.BWSamples) {
		t.Fatalf("observer saw %d samples, result has %d", len(live), len(res.BWSamples))
	}
	for i, s := range res.BWSamples {
		if live[i] != s.End {
			t.Errorf("sample %d: streamed End %d, result End %d", i, live[i], s.End)
		}
	}
}

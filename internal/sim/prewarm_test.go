package sim

import (
	"reflect"
	"runtime"
	"testing"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/workload"
)

// plainSource hides the NextBatch fast path, forcing prewarm's serial
// round-robin loop (and per-item Next draining) for the wrapped source.
type plainSource struct{ src cpu.Source }

func (p plainSource) Next() (cpu.Instr, bool) { return p.src.Next() }

// prewarmSources is a store-heavy multi-core mix with DRAM-sized
// footprints: every warm op runs the full install cascade and the dirty
// evictions exercise the recorded-LLC writeback ordering.
func prewarmSources(wrap bool) []cpu.Source {
	var out []cpu.Source
	for c := 0; c < 4; c++ {
		cfg := workload.SyntheticConfig{
			Pattern:        workload.Random,
			StoreFrac:      0.3,
			WorkPerOp:      5,
			FootprintBytes: 1 << 22,
			StrideBytes:    64,
			Chains:         2,
			BaseAddr:       uint64(c) * (256 << 20),
			Seed:           int64(c + 7),
		}
		if c%2 == 1 {
			cfg.Pattern = workload.Sequential
			cfg.Chains = 0
		}
		var src cpu.Source = workload.MustSynthetic(cfg)
		if wrap {
			src = plainSource{src}
		}
		out = append(out, src)
	}
	return out
}

// TestPrewarmParallelMatchesSerial pins the concurrent warm path: the
// per-core private warming plus ordered LLC replay must leave the
// machine in exactly the state the serial round-robin loop produces, so
// a full run from either warm start yields field-identical Results.
// GOMAXPROCS is raised so the parallel path is taken even on a
// single-processor host (where prewarm otherwise stays serial), and the
// serial reference is forced by hiding the sources' batch interface.
func TestPrewarmParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ResetPrewarmMemo() // the parallel run must warm, not restore

	run := func(wrap bool) *Result {
		cfg := DefaultFor(standard.Default(), 4)
		cfg.MaxMemCycles = 20_000
		cfg.SampleInterval = 3_000
		cfg.PrewarmOps = 1 << 14
		sys, err := New(standard.Default(), WithConfig(cfg), WithSources(prewarmSources(wrap)...))
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run()
		res.Cfg.Trace = nil
		return res
	}
	parallel := run(false)
	serial := run(true)
	if !reflect.DeepEqual(parallel, serial) {
		ft, pv, sv := reflect.TypeOf(*parallel), reflect.ValueOf(*parallel), reflect.ValueOf(*serial)
		for i := 0; i < ft.NumField(); i++ {
			if !reflect.DeepEqual(pv.Field(i).Interface(), sv.Field(i).Interface()) {
				t.Errorf("Result.%s differs between parallel and serial prewarm", ft.Field(i).Name)
			}
		}
	}
}

// TestPrewarmQuotaExactWithBatching: the buffered feed must warm exactly
// PrewarmOps memory operations per core even when the quota is not a
// multiple of the batch size — the refill guard falls back to per-item
// draining near the quota so no generated item is ever dropped. The
// emitted count is quota plus the core's first unwarmed instructions
// only after the timed run consumes them, so it is checked before Run.
func TestPrewarmQuotaExactWithBatching(t *testing.T) {
	for _, quota := range []int64{1, 63, 64, 65, 129} {
		ResetPrewarmMemo() // exercise the buffered feed, not a restore
		srcs := []cpu.Source{workload.MustSynthetic(workload.SyntheticConfig{
			Pattern:        workload.Sequential,
			FootprintBytes: 1 << 20,
			StrideBytes:    64,
			Seed:           3,
		})}
		cfg := DefaultFor(standard.Default(), 1)
		cfg.MaxMemCycles = 100
		cfg.PrewarmOps = quota
		sys, err := New(standard.Default(), WithConfig(cfg), WithSources(srcs...))
		if err != nil {
			t.Fatal(err)
		}
		syn := srcs[0].(*workload.Synthetic)
		if got := syn.Emitted(); got != quota {
			t.Errorf("quota %d: %d ops emitted after prewarm", quota, got)
		}
		_ = sys
	}
}

// TestPrewarmMemoSize pins the memo's byte accounting: a warm state
// counts its key, its cache snapshot and every stored source clone, so
// the cap and the reported bytes track what the memo really retains.
// The per-source sizes are those of a 64-bit build: a Synthetic is its
// 607-word generator register plus its configuration and counters
// (5032 bytes) and 8 bytes per random-pattern chain; a Stream is 88.
func TestPrewarmMemoSize(t *testing.T) {
	for _, tc := range []struct {
		workload string
		sources  int64
	}{
		{"random", 2 * (5032 + 2*8)},
		{"seq", 2 * 5032},
		{"copy", 2 * 88},
	} {
		ResetPrewarmMemo()
		std := standard.Default()
		cfg := DefaultFor(std, 2)
		cfg.PrewarmOps = 1 << 10
		var srcs []cpu.Source
		for c := 0; c < 2; c++ {
			base := uint64(c) << 30
			switch tc.workload {
			case "random":
				wc := workload.DefaultRandom()
				wc.BaseAddr = base
				srcs = append(srcs, workload.MustSynthetic(wc))
			case "seq":
				wc := workload.DefaultSequential()
				wc.BaseAddr = base
				srcs = append(srcs, workload.MustSynthetic(wc))
			default:
				sc := workload.DefaultStream(workload.StreamCopy)
				sc.BaseAddr = base
				srcs = append(srcs, workload.MustStream(sc))
			}
		}
		if _, err := New(std, WithConfig(cfg), WithSources(srcs...)); err != nil {
			t.Fatal(err)
		}
		if len(prewarmMemo.byKey) != 1 {
			t.Fatalf("%s: memo holds %d states, want 1", tc.workload, len(prewarmMemo.byKey))
		}
		w := prewarmMemo.lru.Front().Value.(*warmState)
		if w.sourceSize != tc.sources {
			t.Errorf("%s: source states count %d bytes, want %d", tc.workload, w.sourceSize, tc.sources)
		}
		want := int64(len(w.key)+len(w.snap)) + tc.sources
		if _, _, bytes := PrewarmMemoStats(); w.size() != want || bytes != want {
			t.Errorf("%s: state size %d, memo bytes %d; want %d", tc.workload, w.size(), bytes, want)
		}
	}
	ResetPrewarmMemo()
}

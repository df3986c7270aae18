package sim

import (
	"fmt"
	"testing"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

// TestCalibrationReport is a development aid: run with
//
//	go test ./internal/sim -run Calibration -v -calib
//
// to print the Fig. 2 style stacks for tuning. Skipped by default.
func TestCalibrationReport(t *testing.T) {
	if !*calib {
		t.Skip("pass -calib to print calibration stacks")
	}
	for _, pat := range []workload.Pattern{workload.Sequential, workload.Random} {
		for _, cores := range []int{1, 2, 4, 8} {
			res := runSynthetic(t, pat, cores, 0, MapDefault, 0, 500_000)
			g := res.BWGBps()
			l := res.LatNS()
			fmt.Printf("%-10s %dc: ach=%5.2f GB/s [rd=%5.2f wr=%5.2f ref=%4.2f pre=%4.2f act=%4.2f cons=%4.2f bidle=%5.2f idle=%5.2f] hit=%4.1f%%\n",
				pat, cores, res.AchievedGBps(),
				g[stacks.BWRead], g[stacks.BWWrite], g[stacks.BWRefresh],
				g[stacks.BWPrecharge], g[stacks.BWActivate], g[stacks.BWConstraints],
				g[stacks.BWBankIdle], g[stacks.BWIdle],
				100*res.CtrlStats.PageHitRate())
			fmt.Printf("             lat=%6.1f ns [ctrl=%4.1f dram=%4.1f preact=%5.1f ref=%4.1f wb=%4.1f q=%6.1f] reads=%d\n",
				res.Lat.AvgTotalNS(res.Cfg.Geom),
				l[stacks.LatBaseCtrl], l[stacks.LatBaseDRAM], l[stacks.LatPreAct],
				l[stacks.LatRefresh], l[stacks.LatWriteBurst], l[stacks.LatQueue],
				res.Lat.Reads)
		}
	}
}

func runSynthetic(t *testing.T, pat workload.Pattern, cores int, storeFrac float64, m Mapping, warmup, budget int64) *Result {
	t.Helper()
	cfg := DefaultFor(standard.Default(), cores)
	cfg.Map = m
	cfg.MaxMemCycles = budget
	cfg.WarmupMemCycles = warmup
	var sources []cpu.Source
	for i := 0; i < cores; i++ {
		var wc workload.SyntheticConfig
		if pat == workload.Sequential {
			wc = workload.DefaultSequential()
		} else {
			wc = workload.DefaultRandom()
		}
		wc.StoreFrac = storeFrac
		// Distinct regions, staggered by one DRAM page so concurrent
		// streams start in different bank groups.
		wc.BaseAddr = uint64(i)*(256<<20) + uint64(i)*8192
		wc.Seed = int64(i + 1)
		sources = append(sources, workload.MustSynthetic(wc))
	}
	sys, err := New(standard.Default(), WithConfig(cfg), WithSources(sources...))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(res.Violations) > 0 {
		t.Fatalf("timing violations: %v", res.Violations[0])
	}
	return res
}

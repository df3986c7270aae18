package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/exp"
	"dramstacks/internal/gap"
	"dramstacks/internal/graph"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/qos"
	"dramstacks/internal/sim"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

// assemble builds the machine exp.RunSpec would build for a normalized,
// valid spec, from the layers' public constructors, so the replay can
// time sim.New with and without prewarm and System.Run separately.
// Every replay compares the bytes this machine produces with
// exp.RunSpec's, so the copy cannot drift unnoticed.
func assemble(n exp.Spec) (standard.Standard, sim.Config, []cpu.Source, error) {
	std, err := standard.Lookup(n.Standard)
	if err != nil {
		return std, sim.Config{}, nil, err
	}
	cfg := sim.DefaultFor(std, n.Cores)
	cfg.Channels = n.Channels
	switch n.Mapping {
	case "int":
		cfg.Map = sim.MapInterleaved
	case "xor":
		cfg.Map = sim.MapXOR
	}
	cfg.Ctrl.Policy = memctrl.OpenPage
	if n.Policy == "closed" {
		cfg.Ctrl.Policy = memctrl.ClosedPage
	}
	if n.QoS != "" {
		if cfg.Ctrl.QoS, err = qos.Parse(n.QoS, n.Cores); err != nil {
			return std, cfg, nil, err
		}
	}
	cfg.MaxMemCycles = n.Budget
	if n.Budget == exp.BudgetUnlimited {
		cfg.MaxMemCycles = 0
	}
	cfg.SampleInterval = n.Sample

	var srcs []cpu.Source
	switch w := n.Workload; {
	case strings.Contains(w, ","):
		srcs, err = mixSources(w, n.Cores)
	case w == "latcrit" || w == "bwhog":
		cfg.PrewarmOps = 1 << 20
		for i := 0; i < n.Cores; i++ {
			wc := workload.DefaultLatCrit()
			if w == "bwhog" {
				wc = workload.DefaultBWHog()
			}
			wc.StoreFrac = n.Stores
			wc.BaseAddr = uint64(i)*(256<<20) + uint64(i)*8192
			wc.Seed = int64(i + 1)
			srcs = append(srcs, workload.MustSynthetic(wc))
		}
	case w == "seq" || w == "random" || w == "strided":
		cfg.PrewarmOps = 1 << 20
		pat := map[string]workload.Pattern{"seq": workload.Sequential, "random": workload.Random, "strided": workload.Strided}[w]
		srcs = sim.SyntheticSources(pat, n.Cores, n.Stores)
	case streamKinds[w] != nil:
		cfg.PrewarmOps = 1 << 20
		srcs = workload.StreamSources(*streamKinds[w], n.Cores)
	default:
		var g *graph.Graph
		if g, err = gapGraph(w, n.Scale); err != nil {
			return std, cfg, nil, err
		}
		var runner *gap.Runner
		if runner, _, err = gap.Build(w, g, n.Cores); err != nil {
			return std, cfg, nil, err
		}
		if n.WriteQueue > 0 {
			cfg.Ctrl.WriteQueueCap = n.WriteQueue
			cfg.Ctrl.WriteHi = n.WriteQueue * 3 / 4
			cfg.Ctrl.WriteLo = n.WriteQueue / 4
		}
		srcs = runner.Sources()
	}
	return std, cfg, srcs, err
}

var streamKinds = map[string]*workload.StreamKind{
	"copy": ptr(workload.StreamCopy), "scale": ptr(workload.StreamScale),
	"add": ptr(workload.StreamAdd), "triad": ptr(workload.StreamTriad),
}

func ptr[T any](v T) *T { return &v }

func mixSources(mix string, cores int) ([]cpu.Source, error) {
	kinds := strings.Split(mix, ",")
	var srcs []cpu.Source
	for i := 0; i < cores; i++ {
		kind := kinds[i%len(kinds)]
		base := uint64(i)*(512<<20) + uint64(i)*8192
		if sk := streamKinds[kind]; sk != nil {
			sc := workload.DefaultStream(*sk)
			sc.BaseAddr = base
			srcs = append(srcs, workload.MustStream(sc))
			continue
		}
		var wc workload.SyntheticConfig
		switch kind {
		case "seq":
			wc = workload.DefaultSequential()
		case "random":
			wc = workload.DefaultRandom()
		case "latcrit":
			wc = workload.DefaultLatCrit()
		case "bwhog":
			wc = workload.DefaultBWHog()
		case "strided":
			wc = workload.DefaultStrided()
		default:
			return nil, fmt.Errorf("unknown mix component %q", kind)
		}
		wc.BaseAddr = base
		wc.Seed = int64(i + 1)
		srcs = append(srcs, workload.MustSynthetic(wc))
	}
	return srcs, nil
}

var (
	graphsMu sync.Mutex
	graphs   = map[string]*graph.Graph{}
)

// gapGraph builds (once) the prepared graph exp.DefaultGap uses.
func gapGraph(bench string, scale int) (*graph.Graph, error) {
	gs := exp.DefaultGap(bench, 1)
	key := fmt.Sprintf("%s/%d", bench, scale)
	graphsMu.Lock()
	defer graphsMu.Unlock()
	if g, ok := graphs[key]; ok {
		return g, nil
	}
	g := graph.Kronecker(scale, gs.Degree, gs.Seed)
	if err := gap.Prepare(bench, g); err != nil {
		return nil, err
	}
	graphs[key] = g
	return g, nil
}

// layers accumulates the traced replay's per-layer work and time over
// the replayed jobs.
type layers struct {
	jobs                           int
	buildS, newS, loopS, encodeS   float64
	loopNoVerifyS                  float64
	prewarmOps                     int64
	allocs                         uint64
	memCycles, cmds                int64
	retired, cpuCycles             int64
	l1Hits, l1Acc, llcMiss, llcAcc int64
	pageHits, pageAcc              int64
	readQCycles, ctrlCycles        int64
	drains                         int64
	bwData, bwTotal                float64
	latNSxReads                    float64
	reads                          int64
	conservationErrs               int
	admitS                         float64
	admits                         int
}

// timeAdmit times the daemon's admission path (exp.DecodeSpec, then
// Normalized, Validate and Hash) on a request body, averaged over reps.
func (l *layers) timeAdmit(body []byte, tr *tracer) error {
	const reps = 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		s, err := exp.DecodeSpec(body)
		if err != nil {
			return err
		}
		s = s.Normalized()
		if err := s.Validate(); err != nil {
			return err
		}
		if _, err := s.Hash(); err != nil {
			return err
		}
	}
	end := time.Now()
	tr.add("exp.admit", tr.newReq(), 0, start, end)
	l.admitS += end.Sub(start).Seconds() / reps
	l.admits++
	return nil
}

// replay runs one job through each layer's public functions and checks
// that every path gives the same bytes, and that match accepts them as
// the bytes the daemon served.
func (l *layers) replay(ctx context.Context, j job, match func([]byte) bool, tr *tracer) error {
	req := tr.newReq()
	t0 := time.Now()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := exp.RunSpec(ctx, j.Spec, exp.RunOptions{})
	if err != nil {
		return err
	}
	ref, err := exp.ResultJSON(j.Spec, res)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	t1 := time.Now()
	root := tr.add("replay", req, 0, t0, t0)
	tr.add("exp.run_spec", req, root, t0, t1)
	if !match(ref) {
		return fmt.Errorf("%s: daemon bytes differ from exp.RunSpec + exp.ResultJSON", j.Spec.Label())
	}

	// sim.New without prewarm is the machine build alone.
	std, cfg, srcs, err := assemble(j.Spec)
	if err != nil {
		return err
	}
	cfg.PrewarmOps = 0
	t2 := time.Now()
	if _, err := sim.New(std, sim.WithConfig(cfg), sim.WithSources(srcs...)); err != nil {
		return err
	}
	t3 := time.Now()
	tr.add("sim.build", req, root, t2, t3)

	std, cfg, srcs, err = assemble(j.Spec)
	if err != nil {
		return err
	}
	t4 := time.Now()
	sys, err := sim.New(std, sim.WithConfig(cfg), sim.WithSources(srcs...))
	if err != nil {
		return err
	}
	t5 := time.Now()
	r := sys.Run()
	t6 := time.Now()
	got, err := exp.ResultJSON(j.Spec, r)
	if err != nil {
		return err
	}
	t7 := time.Now()
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("%s: replayed machine diverged from exp.RunSpec", j.Spec.Label())
	}
	tr.add("sim.new", req, root, t4, t5)
	tr.add("sim.run", req, root, t5, t6)
	tr.add("exp.result_json", req, root, t6, t7)

	std, cfg, srcs, err = assemble(j.Spec)
	if err != nil {
		return err
	}
	cfg.Verify = false
	sysNV, err := sim.New(std, sim.WithConfig(cfg), sim.WithSources(srcs...))
	if err != nil {
		return err
	}
	t8 := time.Now()
	rNV := sysNV.Run()
	t9 := time.Now()
	tr.add("sim.run_noverify", req, root, t8, t9)
	if nv, err := exp.ResultJSON(j.Spec, rNV); err != nil || !bytes.Equal(nv, ref) {
		return fmt.Errorf("%s: run without the timing verifier gave other results (%v)", j.Spec.Label(), err)
	}
	tr.setEnd(root, t9)

	l.jobs++
	l.allocs += m1.Mallocs - m0.Mallocs
	l.buildS += t3.Sub(t2).Seconds()
	l.newS += t5.Sub(t4).Seconds()
	l.loopS += t6.Sub(t5).Seconds()
	l.encodeS += t7.Sub(t6).Seconds()
	l.loopNoVerifyS += t9.Sub(t8).Seconds()
	l.prewarmOps += cfg.PrewarmOps * int64(cfg.Cores)
	l.sentinels(r, sys)
	return nil
}

// sentinels adds the simulated statistics of one run. They are exact:
// a change that only speeds the simulator up leaves them bit-identical.
func (l *layers) sentinels(r *sim.Result, sys *sim.System) {
	l.memCycles += r.MemCycles
	d := r.DevStats
	l.cmds += d.ACT + d.PRE + d.RD + d.WR + d.REF
	l.retired += r.TotalRetired()
	for c, cs := range r.CycleStacks {
		l.cpuCycles += cs.Total
		st := sys.Hierarchy().L1Stats(c)
		l.l1Hits += st.Hits
		l.l1Acc += st.Accesses
	}
	l.llcMiss += r.LLCStats.Misses
	l.llcAcc += r.LLCStats.Accesses
	cs := r.CtrlStats
	l.pageHits += cs.PageHits
	l.pageAcc += cs.PageHits + cs.PageEmpty + cs.PageMiss
	l.readQCycles += cs.ReadQueueCycles
	l.ctrlCycles += cs.Cycles
	l.drains += cs.DrainEntries
	l.bwData += r.BW.Cycles[stacks.BWRead] + r.BW.Cycles[stacks.BWWrite]
	l.bwTotal += float64(r.BW.TotalCycles)
	l.latNSxReads += r.Lat.AvgTotalNS(r.Cfg.Geom) * float64(r.Lat.Reads)
	l.reads += r.Lat.Reads
	// The paper's invariant: every channel cycle is attributed once, in
	// the aggregate and in each channel's stack.
	if r.BW.CheckSum() != nil {
		l.conservationErrs++
	}
	for _, bw := range r.PerChannelBW {
		if bw.CheckSum() != nil {
			l.conservationErrs++
		}
	}
}

// metrics renders the per-layer numbers of the replay.
func (l *layers) metrics(m map[string]float64) {
	n := float64(max(l.jobs, 1))
	m["exp.admit_s"] = l.admitS / float64(max(l.admits, 1))
	m["exp.encode_s"] = l.encodeS / n
	m["sim.build_s"] = l.buildS / n
	m["sim.prewarm_s"] = (l.newS - l.buildS) / n
	m["sim.loop_s"] = l.loopS / n
	m["sim.loop_cycles_per_s"] = ratio{float64(l.memCycles), l.loopS}.value()
	m["sim.setup_share"] = ratio{l.newS, l.newS + l.loopS + l.encodeS}.value()
	m["sim.allocs_per_job"] = float64(l.allocs) / n
	m["cpu.retired_per_loop_s"] = ratio{float64(l.retired), l.loopS}.value()
	m["cache.warm_ops_per_s"] = 0 // no prewarm: the time difference is noise
	if l.prewarmOps > 0 {
		m["cache.warm_ops_per_s"] = ratio{float64(l.prewarmOps), l.newS - l.buildS}.value()
	}
	m["dram.verify_s"] = (l.loopS - l.loopNoVerifyS) / n
	m["dram.loop_ns_per_cmd"] = ratio{l.loopS * 1e9, float64(l.cmds)}.value()
	m["cpu.ipc"] = ratio{float64(l.retired), float64(l.cpuCycles)}.value()
	m["cache.l1_hit_ratio"] = ratio{float64(l.l1Hits), float64(l.l1Acc)}.value()
	m["cache.llc_miss_ratio"] = ratio{float64(l.llcMiss), float64(l.llcAcc)}.value()
	m["memctrl.row_hit_ratio"] = ratio{float64(l.pageHits), float64(l.pageAcc)}.value()
	m["memctrl.read_queue_avg"] = ratio{float64(l.readQCycles), float64(l.ctrlCycles)}.value()
	m["memctrl.write_drains"] = float64(l.drains)
	m["dram.cmds"] = float64(l.cmds)
	m["stacks.bw_data_share"] = ratio{l.bwData, l.bwTotal}.value()
	m["stacks.lat_mean_ns"] = ratio{l.latNSxReads, float64(l.reads)}.value()
	m["stacks.conservation_errors"] = float64(l.conservationErrs)
}

// Command perfbench is the repository's benchmark. It drives an
// in-process dramstacksd (service.New(...).Handler() on a loopback
// listener, default worker pool) from one process, with at most nproc
// client goroutines and connections, checks every result it is served,
// and prints one JSON line of metrics.
//
//	bash perfbench/run.sh --workload loop-mix --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics (host time). --trace 1 runs
// the same generated inputs with client-side spans in every other round
// and replays a subset through each layer's public functions
// (exp.RunSpec, sim.New with and without prewarm, System.Run,
// exp.ResultJSON), printing the per-layer metrics and writing the spans
// as JSON into the output directory.
//
// Workloads (BENCHMARK.json says why each was chosen):
//
//   - standards-sweep: rounds of one POST /v1/sweeps of DRAM-saturated
//     seq/random points with stores and 1M-op prewarm, five standards x
//     1-2 cores, read from the /results NDJSON stream, then read back
//     through the cache.
//   - loop-mix: a closed loop of nproc clients submitting distinct mix,
//     QoS, latcrit and GAP jobs with no prewarm, each read back once
//     through the cache.
//
// setup_s is the median of setupReps cold set-ups: this process's own and
// the rest each in a child process started with --setup-only, so that no
// set-up finds the GAP graphs or anything else process-wide already built.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dramstacks/internal/exp"
)

var workloads = []string{"standards-sweep", "loop-mix"}

// setupReps is how many cold set-ups a run times; setup_s is the median.
const setupReps = 5

// runDeadline keeps a run, measurement and checks, under 180 s.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: standards-sweep or loop-mix")
		seed    = flag.Int64("seed", 1, "seed all inputs are generated from")
		seconds = flag.Int("seconds", 20, "measurement length in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for spans and daemon data")
		only    = flag.Bool("setup-only", false, "time one cold set-up, print its seconds and exit")
	)
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *name
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0|1\n", workloads)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	work, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	r := &runner{
		ctx:      ctx,
		workload: *name,
		seconds:  *seconds,
		traced:   *trace == 1,
		g:        newGen(*seed, *name),
		conns:    runtime.NumCPU(),
		rec:      newRecorder(),
	}
	if r.traced {
		r.tr = newTracer()
	}
	if *only {
		return r.setUpOnly()
	}
	if !r.traced {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		r.setupCmd = []string{exe, "--setup-only", "--workload", *name, "--seed", fmt.Sprint(*seed),
			"--seconds", fmt.Sprint(*seconds), "--out", *out}
	}
	res, err := r.execute(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Println("spans", path)
	}
	for _, e := range r.rec.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute sets up, measures, checks and reports one run.
func (r *runner) execute(work string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	inputs, err := r.generate()
	if err != nil {
		return res, err
	}
	var setup []float64
	for rep := 1; rep < setupReps && r.setupCmd != nil; rep++ {
		s, err := r.childSetUp()
		if err != nil {
			return res, err
		}
		setup = append(setup, s)
	}
	t0 := time.Now()
	if err := r.setUp(inputs); err != nil {
		return res, err
	}
	setup = append(setup, time.Since(t0).Seconds())
	defer r.tearDown()
	fmt.Printf("setup %s workers=%d clients=%d setup_s=%v\n", r.workload, r.workers(), r.conns, setup)

	t0 = time.Now()
	r.measure(inputs)
	fmt.Printf("measured %d rounds in %.2f s\n", len(r.rec.rounds), time.Since(t0).Seconds())
	maxRSS := maxRSSMB()
	if err := r.ctx.Err(); err != nil {
		return res, fmt.Errorf("measurement overran the run deadline: %w", err)
	}
	svc, err := r.cl.metrics()
	if err != nil {
		return res, err
	}

	// Byte checks against the direct exp.RunSpec path, outside the
	// measured window; the traced run replays through every layer.
	lay := &layers{}
	for _, j := range inputs.verify {
		served := r.rec.result(j.Hash)
		match := func(ref []byte) bool { return bytes.Equal(ref, served) || sameDocument(ref, served) }
		if served == nil {
			err = fmt.Errorf("%s: no served result kept", j.Spec.Label())
		} else if r.traced {
			err = lay.replay(r.ctx, j, match, r.tr)
		} else {
			err = verifyDirect(r.ctx, j, match)
		}
		r.rec.attempt()
		if err != nil {
			r.rec.fail(err)
		}
	}
	var dg digest
	for _, h := range inputs.digest {
		dg.add(r.rec.result(h))
	}
	r.digest = dg.String()
	fmt.Printf("digest %s %s results=%d\n", r.workload, r.digest, len(inputs.digest))

	res.Attempted, res.Failed = r.rec.attempted, r.rec.failed
	res.Correct = r.rec.failed == 0
	if !res.Correct {
		return res, nil
	}
	var m map[string]float64
	units := endToEndUnits
	if r.traced {
		m, err = r.layerMetrics(inputs, lay, svc, work)
		units = perLayerUnits
	} else {
		m, err = r.endToEnd(setup, maxRSS)
	}
	if err != nil {
		return res, err
	}
	for _, k := range sortedKeys(units) {
		v, ok := m[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is missing or not finite (%v)", k, v)
		}
		res.Metrics[k] = metric{v, units[k]}
		fmt.Printf("metric %-28s %14.6g %s\n", k, v, units[k])
	}
	return res, nil
}

// endToEnd computes the host-time metrics a user of the daemon sees.
func (r *runner) endToEnd(setup []float64, maxRSS float64) (map[string]float64, error) {
	rec := r.rec
	jt, ok1 := tailOf(rec.jobLat)
	at, ok2 := tailOf(rec.ackLat)
	if !ok1 || !ok2 || len(rec.hitLat) == 0 || len(rec.rounds) == 0 {
		return nil, fmt.Errorf("too few samples: %d jobs, %d acks, %d hits, %d rounds",
			len(rec.jobLat), len(rec.ackLat), len(rec.hitLat), len(rec.rounds))
	}
	fmt.Printf("tail job_latency p%.1f of %d samples; submit_ack p%.1f of %d samples; cache_hit %d samples\n",
		jt.Pct, jt.Samples, at.Pct, at.Samples, len(rec.hitLat))
	m := map[string]float64{
		"setup_s":            median(setup),
		"job_latency_p50_s":  median(rec.jobLat),
		"job_latency_tail_s": jt.Value,
		"round_makespan_s":   median(rec.perRound(func(rs roundStat) float64 { return rs.makespan.Seconds() })),
		"mem_cycles_per_s":   median(rec.perRound(func(rs roundStat) float64 { return float64(rs.memCycles) / rs.makespan.Seconds() })),
		"jobs_per_s":         median(rec.perRound(func(rs roundStat) float64 { return float64(rs.jobs) / rs.makespan.Seconds() })),
		"submit_ack_p50_s":   median(rec.ackLat),
		"cache_hit_p50_s":    median(rec.hitLat),
		"max_rss_mb":         maxRSS,
	}
	return m, nil
}

// layerMetrics computes the traced run's per-layer metrics.
func (r *runner) layerMetrics(in inputs, lay *layers, svc map[string]float64, work string) (map[string]float64, error) {
	for _, b := range in.admit {
		if err := lay.timeAdmit(b, r.tr); err != nil {
			return nil, err
		}
	}
	journal, err := r.journalProbe(filepath.Join(work, "probe"))
	if err != nil {
		return nil, err
	}
	rec := r.rec
	m := map[string]float64{}
	lay.metrics(m)
	hits, misses := svc["dramstacksd_cache_hits_total"], svc["dramstacksd_cache_misses_total"]
	rejected, submitted := svc["dramstacksd_jobs_rejected_total"], svc["dramstacksd_jobs_submitted_total"]
	m["service.workers"] = svc["dramstacksd_workers"]
	m["service.queue_wait_s"] = median(rec.queueWait)
	m["service.sim_wall_s"] = median(rec.simWall)
	m["service.overhead_s"] = median(rec.overhead)
	m["service.stream_lag_s"] = median(rec.deliveryLag)
	m["service.journal_s"] = journal
	m["service.cache_hit_ratio"] = ratio{hits, hits + misses}.value()
	m["service.rejected_frac"] = ratio{rejected, submitted + rejected}.value()
	jt, _ := tailOf(rec.jobLat)
	m["bench.job_latency_tail_pct"] = jt.Pct
	m["bench.job_latency_samples"] = float64(jt.Samples)
	at, _ := tailOf(rec.ackLat)
	m["bench.submit_ack_tail_s"] = at.Value
	m["bench.trace_overhead_s"] = median(rec.tracedLat) - median(rec.untracedLat)
	m["bench.failed_frac"] = ratio{float64(rec.failed), float64(rec.attempted)}.value()
	self := r.tr.selfSeconds()
	for _, k := range sortedKeys(self) {
		fmt.Printf("self %-20s %10.4f s\n", k, self[k])
	}
	return m, nil
}

// childSetUp times one cold set-up in a child process.
func (r *runner) childSetUp() (float64, error) {
	cmd := exec.CommandContext(r.ctx, r.setupCmd[0], r.setupCmd[1:]...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("cold set-up in a child process: %w", err)
	}
	lines := strings.Fields(string(out))
	if len(lines) == 0 {
		return 0, fmt.Errorf("cold set-up in a child process printed nothing")
	}
	return strconv.ParseFloat(lines[len(lines)-1], 64)
}

// setUpOnly is a --setup-only run: it times one set-up, prints the
// seconds as its last line and tears the daemon down.
func (r *runner) setUpOnly() int {
	inputs, err := r.generate()
	if err == nil {
		t0 := time.Now()
		if err = r.setUp(inputs); err == nil {
			s := time.Since(t0).Seconds()
			r.tearDown()
			fmt.Println(s)
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// verifyDirect compares served bytes with a direct exp.RunSpec +
// exp.ResultJSON of the same spec.
func verifyDirect(ctx context.Context, j job, match func([]byte) bool) error {
	res, err := exp.RunSpec(ctx, j.Spec, exp.RunOptions{})
	if err != nil {
		return err
	}
	ref, err := exp.ResultJSON(j.Spec, res)
	if err != nil {
		return err
	}
	if !match(ref) {
		return fmt.Errorf("%s: daemon bytes differ from exp.RunSpec + exp.ResultJSON", j.Spec.Label())
	}
	return nil
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

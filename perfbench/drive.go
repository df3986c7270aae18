package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dramstacks/internal/service"
)

// recorder collects what the clients observe. Every operation counts
// once in attempted; one that gets a non-2xx reply, a 429 or a wrong
// output counts in failed.
type recorder struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string

	jobLat    []float64 // cache-miss job: submit → result bytes
	ackLat    []float64 // POST → acknowledgement
	hitLat    []float64 // cache hit: submit → result bytes
	memCycles int64     // simulated by cache-miss jobs
	misses    int
	rounds    []roundStat

	// Per-layer observations of cache-miss jobs.
	queueWait, simWall, overhead, deliveryLag []float64
	tracedLat, untracedLat                    []float64

	// Results kept for the byte checks, by spec hash.
	results map[string][]byte
}

// roundStat is one round of a workload: its makespan and the cache-miss
// jobs and simulated memory cycles it delivered.
type roundStat struct {
	makespan  time.Duration
	jobs      int
	memCycles int64
}

// round records a finished round from the totals before it started.
func (r *recorder) round(makespan time.Duration, jobs0 int, cycles0 int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rounds = append(r.rounds, roundStat{makespan, r.misses - jobs0, r.memCycles - cycles0})
}

func (r *recorder) totals() (int, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.misses, r.memCycles
}

// perRound applies f to every round.
func (r *recorder) perRound(f func(roundStat) float64) []float64 {
	out := make([]float64, len(r.rounds))
	for i, rs := range r.rounds {
		out[i] = f(rs)
	}
	return out
}

func newRecorder() *recorder { return &recorder{results: map[string][]byte{}} }

func (r *recorder) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *recorder) add(dst *[]float64, d time.Duration) {
	r.mu.Lock()
	*dst = append(*dst, d.Seconds())
	r.mu.Unlock()
}

func (r *recorder) keep(hash string, raw []byte) {
	r.mu.Lock()
	r.results[hash] = raw
	r.mu.Unlock()
}

func (r *recorder) result(hash string) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.results[hash]
}

// serverTimes is a job's server-side timeline, read from its status.
type serverTimes struct {
	submitted, started, finished time.Time
}

func timesOf(st service.StatusJSON) (serverTimes, error) {
	sub, err := time.Parse(time.RFC3339Nano, st.Submitted)
	if err != nil {
		return serverTimes{}, fmt.Errorf("job %s: submitted time: %w", st.ID, err)
	}
	started := sub.Add(time.Duration(st.StartedMS * float64(time.Millisecond)))
	return serverTimes{sub, started, started.Add(time.Duration(st.SimWallMS * float64(time.Millisecond)))}, nil
}

// delivered records a completed cache-miss job or sweep point: its
// client latency and simulated cycles.
func (r *recorder) delivered(lat time.Duration, memCycles int64, traced bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobLat = append(r.jobLat, lat.Seconds())
	r.memCycles += memCycles
	r.misses++
	if traced {
		r.tracedLat = append(r.tracedLat, lat.Seconds())
	} else {
		r.untracedLat = append(r.untracedLat, lat.Seconds())
	}
}

// missDone records a completed cache-miss job with the split of its
// latency that the status reports.
func (r *recorder) missDone(lat time.Duration, memCycles int64, st serverTimes, got time.Time, traced bool) {
	r.delivered(lat, memCycles, traced)
	r.mu.Lock()
	defer r.mu.Unlock()
	qw := st.started.Sub(st.submitted).Seconds()
	sw := st.finished.Sub(st.started).Seconds()
	r.queueWait = append(r.queueWait, qw)
	r.simWall = append(r.simWall, sw)
	r.overhead = append(r.overhead, lat.Seconds()-qw-sw)
	r.deliveryLag = append(r.deliveryLag, got.Sub(st.finished).Seconds())
}

// runner holds one benchmark run: its daemon, client, inputs and
// observations.
type runner struct {
	ctx      context.Context
	workload string
	seconds  int
	traced   bool // --trace 1: per-layer run
	g        *gen
	d        *daemon
	cl       *client
	conns    int // client goroutines and connections: nproc
	rec      *recorder
	tr       *tracer // nil unless traced
	digest   string  // of the results named by inputs.digest
	// setupCmd starts a child process that times one cold set-up; nil
	// times only this process's own.
	setupCmd []string
}

// roundTracer returns the tracer for a round: a traced run records spans
// in every other round, so the untraced rounds beside them give the
// tracing overhead.
func (r *runner) roundTracer(round int) *tracer {
	if r.traced && round%2 == 1 {
		return r.tr
	}
	return nil
}

// submitMiss runs one cache-miss job from t0: submit, poll to done,
// fetch the stacks and check them.
func (r *runner) submitMiss(j job, t0 time.Time, tr *tracer) ([]byte, int64, error) {
	r.rec.attempt()
	raw, memCycles, err := r.miss(j, t0, tr)
	if err != nil {
		r.rec.fail(err)
	}
	return raw, memCycles, err
}

func (r *runner) miss(j job, t0 time.Time, tr *tracer) ([]byte, int64, error) {
	req := tr.newReq()
	tPost := time.Now()
	sr, _, err := r.cl.submit(j.Body)
	tAck := time.Now()
	if err != nil {
		return nil, 0, fmt.Errorf("submit %s: %w", j.Spec.Label(), err)
	}
	r.rec.add(&r.rec.ackLat, tAck.Sub(tPost))
	if sr.Cached || sr.Deduped || sr.SpecHash != j.Hash {
		return nil, 0, fmt.Errorf("submit %s: want a fresh job for %.12s, got %+v", j.Spec.Label(), j.Hash, sr)
	}
	st, err := r.cl.wait(sr.ID)
	tDone := time.Now()
	if err != nil {
		return nil, 0, err
	}
	raw, err := r.cl.stacks(sr.ID)
	tRes := time.Now()
	if err != nil {
		return nil, 0, fmt.Errorf("stacks of %s: %w", sr.ID, err)
	}
	doc, err := checkResult(raw, j.Hash)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", j.Spec.Label(), err)
	}
	times, err := timesOf(st)
	if err != nil {
		return nil, 0, err
	}
	r.rec.missDone(tRes.Sub(t0), doc.MemCycles, times, tRes, tr != nil)
	if tr != nil {
		root := tr.add("job", req, 0, t0, tRes)
		tr.add("http.submit", req, root, tPost, tAck)
		tr.add("client.wait", req, root, tAck, tDone)
		tr.add("http.stacks", req, root, tDone, tRes)
		tr.add("service.queue", req, root, times.submitted, times.started)
		tr.add("service.sim", req, root, times.started, times.finished)
	}
	return raw, doc.MemCycles, nil
}

// submitHit resubmits a completed spec and fetches the cached stacks;
// match checks the bytes against the copy already in hand.
func (r *runner) submitHit(body []byte, hash string, match func([]byte) bool, t0 time.Time, tr *tracer) error {
	r.rec.attempt()
	err := r.hit(body, hash, match, t0, tr)
	if err != nil {
		r.rec.fail(err)
	}
	return err
}

func (r *runner) hit(body []byte, hash string, match func([]byte) bool, t0 time.Time, tr *tracer) error {
	req := tr.newReq()
	tPost := time.Now()
	sr, code, err := r.cl.submit(body)
	tAck := time.Now()
	if err != nil {
		return fmt.Errorf("resubmit %.12s: %w", hash, err)
	}
	r.rec.add(&r.rec.ackLat, tAck.Sub(tPost))
	if code != http.StatusOK || !sr.Cached || sr.SpecHash != hash {
		return fmt.Errorf("resubmit %.12s: want a cache hit, got HTTP %d %+v", hash, code, sr)
	}
	raw, err := r.cl.stacks(sr.ID)
	tRes := time.Now()
	if err != nil {
		return fmt.Errorf("cached stacks of %s: %w", sr.ID, err)
	}
	if !match(raw) {
		return fmt.Errorf("cache hit %.12s served other bytes than the first run", hash)
	}
	r.rec.add(&r.rec.hitLat, tRes.Sub(t0))
	if tr != nil {
		root := tr.add("hit", req, 0, t0, tRes)
		tr.add("http.submit", req, root, tPost, tAck)
		tr.add("http.stacks", req, root, tAck, tRes)
	}
	return nil
}

// --- standards-sweep -------------------------------------------------

// sweepRoundNominal is one round's duration on a 2-vCPU host; it sets
// how many rounds fill --seconds, so every run measures the same work.
const sweepRoundNominal = 10 * time.Second

func (r *runner) sweepRound(plan sweepPlan, tr *tracer) error {
	r.rec.attempt()
	jobs0, cycles0 := r.rec.totals()
	t0 := time.Now()
	code, body, err := r.cl.do(http.MethodPost, "/v1/sweeps", plan.Body)
	tAck := time.Now()
	if err != nil {
		r.rec.fail(fmt.Errorf("sweep submit: %w", err))
		return err
	}
	r.rec.add(&r.rec.ackLat, tAck.Sub(t0))
	var st service.SweepStatusJSON
	if err := json.Unmarshal(body, &st); err != nil || code != http.StatusAccepted || len(st.Jobs) != len(plan.Points) {
		err = fmt.Errorf("sweep submit: HTTP %d, %d points (want %d): %v", code, len(st.Jobs), len(plan.Points), err)
		r.rec.fail(err)
		return err
	}
	for i, p := range st.Jobs {
		if p.SpecHash != plan.Points[i].Hash {
			err := fmt.Errorf("sweep point %d expanded to %.12s, want %.12s", i, p.SpecHash, plan.Points[i].Hash)
			r.rec.fail(err)
			return err
		}
	}

	req := tr.newReq()
	root := tr.add("sweep", req, 0, t0, t0)
	arrivals := make([]time.Time, len(plan.Points))
	pointSpans := make([]int64, len(plan.Points))
	var last time.Time
	var lastJob string
	n := 0
	err = r.cl.streamSweep(st.ID, func(line service.SweepResultLine, at time.Time) error {
		r.rec.attempt()
		p := plan.Points[n]
		if line.Index != n || line.State != service.StateDone || line.SpecHash != p.Hash {
			return fmt.Errorf("sweep line %d: index %d state %s hash %.12s (want %.12s)", n, line.Index, line.State, line.SpecHash, p.Hash)
		}
		doc, err := checkResult(line.Result, p.Hash)
		if err != nil {
			return fmt.Errorf("sweep point %s: %w", p.Spec.Label(), err)
		}
		r.rec.delivered(at.Sub(t0), doc.MemCycles, tr != nil)
		r.rec.keep(p.Hash, append([]byte(nil), line.Result...))
		pointSpans[n] = tr.add("sweep.point", req, root, t0, at)
		arrivals[n] = at
		last, lastJob = at, line.JobID
		n++
		return nil
	})
	if err == nil && n != len(plan.Points) {
		err = fmt.Errorf("sweep stream ended after %d of %d points", n, len(plan.Points))
	}
	if err != nil {
		r.rec.fail(err)
		return err
	}
	r.rec.round(last.Sub(t0), jobs0, cycles0)
	tr.setEnd(root, last)

	// Read every point back through the cache once the sweep is done,
	// so the hits neither wait behind nor slow down the prewarms.
	for _, p := range plan.Points {
		served := r.rec.result(p.Hash)
		r.submitHit(p.Readback, p.Hash, func(raw []byte) bool { return sameDocument(raw, served) }, time.Now(), tr)
	}

	// Server-side split of every point, read after the measurement. A
	// point's queue wait includes the points ahead of it in the sweep.
	if r.traced {
		for i, p := range st.Jobs {
			js, err := r.cl.status(p.JobID)
			if err != nil {
				return err
			}
			times, err := timesOf(js)
			if err != nil {
				return err
			}
			r.rec.mu.Lock()
			qw, sw := times.started.Sub(times.submitted).Seconds(), times.finished.Sub(times.started).Seconds()
			r.rec.queueWait = append(r.rec.queueWait, qw)
			r.rec.simWall = append(r.rec.simWall, sw)
			r.rec.overhead = append(r.rec.overhead, arrivals[i].Sub(t0).Seconds()-qw-sw)
			r.rec.mu.Unlock()
			tr.add("service.queue", req, pointSpans[i], times.submitted, times.started)
			tr.add("service.sim", req, pointSpans[i], times.started, times.finished)
			if p.JobID == lastJob {
				r.rec.add(&r.rec.deliveryLag, last.Sub(times.finished))
			}
		}
	}
	return nil
}

// --- loop-mix --------------------------------------------------------

// loopRoundNominal is one loop-mix round on a 2-vCPU host.
const loopRoundNominal = 2400 * time.Millisecond

// loopRound runs one round's jobs through a closed loop of r.conns
// clients: each submits a job, waits for its stacks, reads it back once
// through the cache, then takes the next job.
func (r *runner) loopRound(jobs []job, tr *tracer) {
	var next atomic.Int64
	var wg sync.WaitGroup
	jobs0, cycles0 := r.rec.totals()
	start := time.Now()
	for c := 0; c < r.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || r.ctx.Err() != nil {
					return
				}
				j := jobs[i]
				raw, _, err := r.submitMiss(j, time.Now(), tr)
				if err != nil {
					continue
				}
				r.rec.keep(j.Hash, raw)
				r.submitHit(j.Readback, j.Hash, func(b []byte) bool { return bytes.Equal(b, raw) }, time.Now(), tr)
			}
		}()
	}
	wg.Wait()
	r.rec.round(time.Since(start), jobs0, cycles0)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

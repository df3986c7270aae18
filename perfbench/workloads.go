package main

import (
	"fmt"
	"math"
	"net/http"
	"time"
)

// inputs is everything a run submits, generated from the seed before
// set-up starts.
type inputs struct {
	sweeps []sweepPlan
	loops  [][]job
	warm   []job    // untimed set-up jobs
	verify []job    // checked against a direct exp.RunSpec (replayed per layer when traced)
	digest []string // spec hashes whose results form the run's digest
	admit  [][]byte // request bodies timed through the exp admission path
}

// roundsFor is how many rounds of a nominal length fill the requested
// seconds. It depends only on the flags, so a run's amount of work does
// not depend on how fast the host happens to be. A traced run needs a
// traced and an untraced round.
func (r *runner) roundsFor(nominal time.Duration) int {
	n := max(1, int(math.Round(float64(r.seconds)/nominal.Seconds())))
	if r.traced {
		n = max(n, 2)
	}
	return n
}

func (r *runner) generate() (inputs, error) {
	var in inputs
	g := r.g
	switch r.workload {
	case "standards-sweep":
		off := g.sweepOffset()
		for i := 0; i < r.roundsFor(sweepRoundNominal); i++ {
			p, err := g.sweepRound(off, i)
			if err != nil {
				return in, err
			}
			in.sweeps = append(in.sweeps, p)
		}
		w, err := g.newJob(field{"workload", "seq"}, field{"stores", 0.2}, field{"cycles", 5000})
		if err != nil {
			return in, err
		}
		in.warm = []job{w}
		// One point per standard of the first round, the core count and
		// pattern drawn from the seed.
		for _, std := range sweepStandards {
			var cands []job
			for _, p := range in.sweeps[0].Points {
				if p.Spec.Standard == std {
					cands = append(cands, p)
				}
			}
			in.verify = append(in.verify, pick(g, cands...))
		}
		for _, p := range in.sweeps[0].Points {
			in.digest = append(in.digest, p.Hash)
			in.admit = append(in.admit, p.Readback)
		}
	case "loop-mix":
		off := g.loopOffsets()
		for i := 0; i < r.roundsFor(loopRoundNominal); i++ {
			jobs, err := g.loopRound(off, i)
			if err != nil {
				return in, err
			}
			in.loops = append(in.loops, jobs)
		}
		var err error
		if in.warm, err = g.loopWarmup(); err != nil {
			return in, err
		}
		in.verify = in.loops[0]
		for _, j := range in.loops[0] {
			in.digest = append(in.digest, j.Hash)
			in.admit = append(in.admit, j.Body, j.Readback)
		}
	}
	return in, nil
}

// setUp builds the daemon the measurement runs against and runs the
// workload's untimed warm-up jobs (loop-mix's build the GAP graphs).
func (r *runner) setUp(in inputs) error {
	d, err := startDaemon("")
	if err != nil {
		return err
	}
	r.d, r.cl = d, newClient(r.ctx, d.base, r.conns)
	for _, j := range in.warm {
		_, raw, err := r.cl.complete(j)
		if err != nil {
			r.tearDown()
			return err
		}
		r.rec.keep(j.Hash, raw)
	}
	return nil
}

func (r *runner) tearDown() {
	if r.d == nil {
		return
	}
	r.cl.closeIdle()
	r.d.close()
	r.d, r.cl = nil, nil
}

// workers reads the daemon's worker-pool size from /metrics.
func (r *runner) workers() int {
	m, err := r.cl.metrics()
	if err != nil {
		return -1
	}
	return int(m["dramstacksd_workers"])
}

// measure runs the workload's rounds.
func (r *runner) measure(in inputs) {
	switch r.workload {
	case "standards-sweep":
		for i, p := range in.sweeps {
			if r.sweepRound(p, r.roundTracer(i)) != nil && r.ctx.Err() != nil {
				return
			}
		}
	case "loop-mix":
		for i, jobs := range in.loops {
			r.loopRound(jobs, r.roundTracer(i))
		}
	}
}

// journalProbe measures what the journal adds to an acknowledgement:
// the median POST → ack latency of cache-hit resubmits against a daemon
// with a data dir, minus the same against one without. The two daemons
// are probed alternately with the same bodies.
func (r *runner) journalProbe(dataDir string) (float64, error) {
	var probe []job
	for i := 0; i < 4; i++ {
		j, err := r.g.probeJob(i)
		if err != nil {
			return 0, err
		}
		probe = append(probe, j)
	}
	var lat [2][]float64
	var cls [2]*client
	for k, dir := range []string{"", dataDir} {
		d, err := startDaemon(dir)
		if err != nil {
			return 0, err
		}
		defer d.close()
		cls[k] = newClient(r.ctx, d.base, 1)
		defer cls[k].closeIdle()
		for _, j := range probe {
			if _, _, err := cls[k].complete(j); err != nil {
				return 0, err
			}
		}
	}
	const rounds = 60
	for i := 0; i < rounds; i++ {
		body := r.g.reordered(probe[i%len(probe)])
		for s := range cls {
			k := (s + i) % len(cls)
			t0 := time.Now()
			sr, code, err := cls[k].submit(body)
			d := time.Since(t0)
			if err != nil || code != http.StatusOK || !sr.Cached {
				return 0, fmt.Errorf("journal probe: want a cache hit, got HTTP %d %+v: %v", code, sr, err)
			}
			lat[k] = append(lat[k], d.Seconds())
		}
	}
	return median(lat[1]) - median(lat[0]), nil
}

package main

import (
	"bytes"
	"testing"

	"dramstacks/internal/exp"
)

func generated(t *testing.T, workload string, seed int64) inputs {
	t.Helper()
	r := &runner{workload: workload, seconds: 20, g: newGen(seed, workload)}
	in, err := r.generate()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func allJobs(in inputs) []job {
	var jobs []job
	for _, p := range in.sweeps {
		jobs = append(jobs, p.Points...)
	}
	for _, l := range in.loops {
		jobs = append(jobs, l...)
	}
	return jobs
}

func TestGeneratorIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, c := generated(t, w, 7), generated(t, w, 7), generated(t, w, 8)
		ja, jb, jc := allJobs(a), allJobs(b), allJobs(c)
		if len(ja) == 0 || len(ja) != len(jb) {
			t.Fatalf("%s: %d and %d jobs from one seed", w, len(ja), len(jb))
		}
		same := true
		for i := range ja {
			if !bytes.Equal(ja[i].Body, jb[i].Body) {
				t.Fatalf("%s: job %d differs between two runs of one seed", w, i)
			}
			same = same && i < len(jc) && ja[i].Hash == jc[i].Hash
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generate the same jobs", w)
		}
	}
}

func TestMissesAreDistinctAndReadbacksHit(t *testing.T) {
	for _, w := range workloads {
		in := generated(t, w, 3)
		seen := map[string]bool{}
		for _, j := range append(allJobs(in), in.warm...) {
			if seen[j.Hash] {
				t.Errorf("%s: spec %s generated twice; it would hit the cache", w, j.Spec.Label())
			}
			seen[j.Hash] = true
			if j.Readback == nil {
				continue
			}
			s, err := exp.DecodeSpec(j.Readback)
			if err != nil {
				t.Fatal(err)
			}
			if h, _ := s.Hash(); h != j.Hash || bytes.Equal(j.Readback, j.Body) {
				t.Errorf("%s: read-back body %s is not a reordering of %s", w, j.Readback, j.Body)
			}
		}
	}
}

// TestRoundsStepByOneCycle checks that consecutive rounds differ by one
// cycle of budget per job, so that every round costs the same and a
// traced run's traced (odd) and untraced (even) rounds simulate the same
// work: bench.trace_overhead_s is then the cost of tracing alone.
func TestRoundsStepByOneCycle(t *testing.T) {
	for _, w := range workloads {
		in := generated(t, w, 3)
		rounds := append([][]job(nil), in.loops...)
		for _, p := range in.sweeps {
			rounds = append(rounds, p.Points)
		}
		if len(rounds) < 2 {
			t.Fatalf("%s: %d rounds in 20 s", w, len(rounds))
		}
		for i := 1; i < len(rounds); i++ {
			for k, j := range rounds[i] {
				if d := j.Spec.Budget - rounds[i-1][k].Spec.Budget; d != 1 {
					t.Errorf("%s round %d job %d: budget steps by %d cycles, want 1", w, i, k, d)
				}
			}
		}
	}
}

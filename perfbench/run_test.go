package main

import (
	"context"
	"testing"
)

// TestRunRepeats runs the shortest run of each workload end to end twice
// with one seed: every check must pass, and the result digest must
// repeat.
func TestRunRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon end to end")
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			var digests []string
			for i := 0; i < 2; i++ {
				r := &runner{
					ctx: context.Background(), workload: w, seconds: 1,
					g: newGen(5, w), conns: 2, rec: newRecorder(),
				}
				res, err := r.execute(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("run %d: correct=%v attempted=%d failed=%d: %v", i, res.Correct, res.Attempted, res.Failed, r.rec.errs)
				}
				if len(res.Metrics) != len(endToEndUnits) {
					t.Fatalf("run %d printed %d metrics, want %d", i, len(res.Metrics), len(endToEndUnits))
				}
				digests = append(digests, r.digest)
			}
			if digests[0] != digests[1] {
				t.Fatalf("digests differ between runs of one seed: %s vs %s", digests[0], digests[1])
			}
		})
	}
}

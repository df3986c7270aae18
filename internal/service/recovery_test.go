package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dramstacks/internal/exp"
	"dramstacks/internal/sim"
)

// startDurable starts a server over a data dir WITHOUT registering
// cleanup, so tests control the shutdown order themselves (graceful
// Close vs. simulated crash vs. restart over the same dir).
func startDurable(t *testing.T, dir string, workers int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Workers: workers,
		DataDir: dir,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

// crash simulates abrupt process death: the listener vanishes and the
// journal is abandoned with no shutdown checkpoint. draining is set so
// interrupted runs skip their terminal journal record — exactly the
// state a SIGKILLed process leaves behind (no terminal record at all).
func crash(s *Server, ts *httptest.Server) {
	ts.Close()
	s.draining.Store(true)
	s.stop()
	s.workersWG.Wait()
	s.store.Close()
}

func shutdown(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	s.Close()
}

const fastSpec = `{"workload":"seq","cores":1,"cycles":20000}`
const fastSpec2 = `{"workload":"random","cores":1,"cycles":20000}`

func TestRecoveryGracefulRestartByteIdentity(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := startDurable(t, dir, 2)
	sub, code := postJob(t, ts1, fastSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitState(t, ts1, sub.ID, StateDone)
	want, _ := getBody(t, ts1, "/v1/jobs/"+sub.ID+"/stacks")
	shutdown(t, s1, ts1)

	s2, ts2 := startDurable(t, dir, 2)
	defer shutdown(t, s2, ts2)

	if n := s2.Metrics().JobsRecovered.Load(); n != 1 {
		t.Errorf("JobsRecovered = %d, want 1", n)
	}
	if st := getStatus(t, ts2, sub.ID); st.State != StateDone {
		t.Fatalf("recovered job state %s, want done", st.State)
	}
	got, code := getBody(t, ts2, "/v1/jobs/"+sub.ID+"/stacks")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("recovered stacks differ (status %d):\npre  %s\npost %s", code, want, got)
	}

	// The recovered result must be back in the content-addressed cache…
	resub, code := postJob(t, ts2, fastSpec)
	if code != http.StatusOK || !resub.Cached {
		t.Fatalf("resubmit = %+v status %d, want cache hit", resub, code)
	}
	// …and the id counter must resume past every recovered id.
	if resub.ID != "job-000002" {
		t.Errorf("post-restart id %s, want job-000002", resub.ID)
	}
}

func TestRecoveryCrashPreservesDoneAndRequeuesPending(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := startDurable(t, dir, 1)
	done, _ := postJob(t, ts1, fastSpec)
	waitState(t, ts1, done.ID, StateDone)
	want, _ := getBody(t, ts1, "/v1/jobs/"+done.ID+"/stacks")

	// One job running at crash time, one still queued behind it.
	running, _ := postJob(t, ts1, longSpec)
	waitState(t, ts1, running.ID, StateRunning)
	queued, _ := postJob(t, ts1, fastSpec2)
	crash(s1, ts1)

	s2, ts2 := startDurable(t, dir, 1)
	defer shutdown(t, s2, ts2)

	if n := s2.Metrics().JobsRecovered.Load(); n != 3 {
		t.Errorf("JobsRecovered = %d, want 3", n)
	}
	// Completed before the crash: restored byte-identically.
	if st := getStatus(t, ts2, done.ID); st.State != StateDone {
		t.Fatalf("done job recovered as %s", st.State)
	}
	if got, _ := getBody(t, ts2, "/v1/jobs/"+done.ID+"/stacks"); !bytes.Equal(got, want) {
		t.Fatalf("recovered stacks differ:\npre  %s\npost %s", want, got)
	}
	// Running at crash: re-enqueued, not lost and not terminal.
	st := getStatus(t, ts2, running.ID)
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("interrupted job recovered as %s, want queued/running", st.State)
	}
	// Unblock the single worker, then the queued job must complete.
	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/v1/jobs/"+running.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	waitState(t, ts2, running.ID, StateCancelled)
	waitState(t, ts2, queued.ID, StateDone)
}

func TestRecoveryUserCancelStaysCancelled(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := startDurable(t, dir, 1)
	sub, _ := postJob(t, ts1, longSpec)
	waitState(t, ts1, sub.ID, StateRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts1, sub.ID, StateCancelled)
	shutdown(t, s1, ts1)

	// A client's cancel is intent, not interruption: it must survive the
	// restart rather than being re-enqueued.
	s2, ts2 := startDurable(t, dir, 1)
	defer shutdown(t, s2, ts2)
	if st := getStatus(t, ts2, sub.ID); st.State != StateCancelled {
		t.Fatalf("user-cancelled job recovered as %s, want cancelled", st.State)
	}
	// …and stays that way (a re-enqueued job would flip to running).
	time.Sleep(200 * time.Millisecond)
	if st := getStatus(t, ts2, sub.ID); st.State != StateCancelled {
		t.Fatalf("user-cancelled job became %s after recovery", st.State)
	}
}

func TestRecoverySweepGracefulRestart(t *testing.T) {
	dir := t.TempDir()
	const sweepDoc = `{"base": {"workload": "seq", "cycles": 20000}, "axes": {"cores": [1, 2]}}`

	s1, ts1 := startDurable(t, dir, 2)
	st, code := postSweep(t, ts1, sweepDoc)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit status %d", code)
	}
	if final := waitSweepTerminal(t, ts1, st.ID); final.State != "done" {
		t.Fatalf("sweep finished %s", final.State)
	}
	want, _ := getBody(t, ts1, "/v1/sweeps/"+st.ID+"/results")
	shutdown(t, s1, ts1)

	s2, ts2 := startDurable(t, dir, 2)
	defer shutdown(t, s2, ts2)

	if n := s2.Metrics().SweepsRecovered.Load(); n != 1 {
		t.Errorf("SweepsRecovered = %d, want 1", n)
	}
	if rec := getSweepStatus(t, ts2, st.ID); rec.State != "done" || rec.Completed != 2 {
		t.Fatalf("recovered sweep = %+v, want done with 2 points", rec)
	}
	got, code := getBody(t, ts2, "/v1/sweeps/"+st.ID+"/results")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("recovered sweep results differ (status %d):\npre  %s\npost %s", code, want, got)
	}
}

func TestRecoveryCrashMidSweep(t *testing.T) {
	dir := t.TempDir()
	// Point 1 completes instantly; point 2 runs until cancelled.
	const sweepDoc = `{"base": {"workload": "seq,random", "cores": 2}, "axes": {"cycles": [20000, 4000000000]}}`

	s1, ts1 := startDurable(t, dir, 1)
	st, code := postSweep(t, ts1, sweepDoc)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit status %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	var firstJob string
	for {
		if time.Now().After(deadline) {
			t.Fatal("first sweep point did not complete in time")
		}
		cur := getSweepStatus(t, ts1, st.ID)
		if cur.Completed >= 1 {
			firstJob = cur.Jobs[0].JobID
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	want, _ := getBody(t, ts1, "/v1/jobs/"+firstJob+"/stacks")
	crash(s1, ts1)

	s2, ts2 := startDurable(t, dir, 1)
	defer shutdown(t, s2, ts2)

	rec := getSweepStatus(t, ts2, st.ID)
	if rec.State != "running" || rec.Completed != 1 {
		t.Fatalf("recovered sweep = state %s completed %d, want running/1", rec.State, rec.Completed)
	}
	if got, _ := getBody(t, ts2, "/v1/jobs/"+firstJob+"/stacks"); !bytes.Equal(got, want) {
		t.Fatalf("recovered point stacks differ:\npre  %s\npost %s", want, got)
	}
	// The interrupted point was re-enqueued: cancelling the sweep must
	// reach it and drive the sweep terminal.
	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final := waitSweepTerminal(t, ts2, st.ID); final.State != "cancelled" {
		t.Fatalf("sweep after cancel = %s, want cancelled", final.State)
	}
}

func TestNoDataDirStaysInMemory(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if s.store != nil {
		t.Fatal("store opened without DataDir")
	}
	sub, _ := postJob(t, ts, fastSpec)
	waitState(t, ts, sub.ID, StateDone)
	if n := s.Metrics().JobsRecovered.Load(); n != 0 {
		t.Errorf("JobsRecovered = %d without a data dir", n)
	}
}

// lockedBuffer is a log sink the workers and the test can share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunJobRecoversPanic: a job whose simulation panics fails alone —
// its error names the panic, the stack is logged, JobsFailed counts it
// and the failure is journaled — while the single worker goes on to
// run the next job.
func TestRunJobRecoversPanic(t *testing.T) {
	const panicCycles = 12345
	t.Cleanup(func() { runSpec = exp.RunSpec })
	runSpec = func(ctx context.Context, spec exp.Spec, opt exp.RunOptions) (*sim.Result, error) {
		if spec.Budget == panicCycles {
			panic("injected simulator fault")
		}
		return exp.RunSpec(ctx, spec, opt)
	}
	dir := t.TempDir()
	var logs lockedBuffer
	s, err := New(Config{Workers: 1, DataDir: dir, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	bad, code := postJob(t, ts, fmt.Sprintf(`{"workload":"seq,random","cores":1,"cycles":%d}`, panicCycles))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	st := waitState(t, ts, bad.ID, StateFailed)
	if !strings.Contains(st.Error, "panicked: injected simulator fault") {
		t.Errorf("error = %q, want it to name the panic", st.Error)
	}
	if n := s.Metrics().JobsFailed.Load(); n != 1 {
		t.Errorf("JobsFailed = %d, want 1", n)
	}
	if l := logs.String(); !strings.Contains(l, "job panicked") || !strings.Contains(l, "TestRunJobRecoversPanic") {
		t.Errorf("log lacks the panic and its stack:\n%s", l)
	}

	good, code := postJob(t, ts, fastSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitState(t, ts, good.ID, StateDone)
	shutdown(t, s, ts)

	s2, ts2 := startDurable(t, dir, 1)
	defer shutdown(t, s2, ts2)
	if st := getStatus(t, ts2, bad.ID); st.State != StateFailed || st.Error == "" {
		t.Errorf("recovered panicked job = %s %q, want failed with its error", st.State, st.Error)
	}
}

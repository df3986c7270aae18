package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dramstacks/internal/service"
)

// pollEvery is how often a waiting client re-reads a job's status. It
// bounds the error polling adds to a job latency; faster polling takes
// CPU from the daemon on a small host.
const pollEvery = 5 * time.Millisecond

// daemon is an in-process dramstacksd on a loopback listener, with the
// service's default worker pool.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when Serve has returned
}

// startDaemon builds the service exactly as cmd/dramstacksd does with
// default flags: request logs are formatted at info level, but into
// io.Discard rather than stderr.
func startDaemon(dataDir string) (*daemon, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	srv, err := service.New(service.Config{DataDir: dataDir, Logger: logger})
	if err != nil {
		return nil, fmt.Errorf("starting service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// close stops the listener and open streams, then the service (which
// checkpoints its journal when it has a data dir).
func (d *daemon) close() {
	d.hs.Close()
	<-d.done
	d.srv.Close()
}

// client speaks plain net/http to the daemon: no retries, so a 429 or
// 5xx is seen and counted, never hidden. Every request ends with ctx.
type client struct {
	ctx  context.Context
	hc   *http.Client
	base string
}

func newClient(ctx context.Context, base string, conns int) *client {
	return &client{
		ctx:  ctx,
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, b, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp.StatusCode, b, nil
}

func (c *client) submit(body []byte) (service.SubmitResponse, int, error) {
	var sr service.SubmitResponse
	code, b, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return sr, code, err
	}
	return sr, code, json.Unmarshal(b, &sr)
}

func (c *client) status(id string) (service.StatusJSON, error) {
	var st service.StatusJSON
	_, b, err := c.do(http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}

func (c *client) stacks(id string) ([]byte, error) {
	_, b, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/stacks", nil)
	return b, err
}

// wait polls a job until it is terminal and returns its final status.
func (c *client) wait(id string) (service.StatusJSON, error) {
	for {
		st, err := c.status(id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			if st.State != service.StateDone {
				return st, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
			}
			return st, nil
		}
		select {
		case <-time.After(pollEvery):
		case <-c.ctx.Done():
			return st, c.ctx.Err()
		}
	}
}

// metrics scrapes /metrics into a name → value map (label sets kept in
// the name).
func (c *client) metrics() (map[string]float64, error) {
	_, b, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// streamSweep reads /v1/sweeps/{id}/results, calling fn with each line
// and the time it arrived, until the stream ends.
func (c *client) streamSweep(id string, fn func(service.SweepResultLine, time.Time) error) error {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, c.base+"/v1/sweeps/"+id+"/results", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("sweep %s results: HTTP %d: %s", id, resp.StatusCode, bytes.TrimSpace(b))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		at := time.Now()
		var line service.SweepResultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("sweep %s: undecodable result line: %w", id, err)
		}
		if err := fn(line, at); err != nil {
			return err
		}
	}
	return sc.Err()
}

// complete submits a job outside any measurement, waits for it and
// returns its id and checked result.
func (c *client) complete(j job) (string, []byte, error) {
	sr, _, err := c.submit(j.Body)
	if err != nil {
		return "", nil, fmt.Errorf("set-up job %s: %w", j.Spec.Label(), err)
	}
	if _, err := c.wait(sr.ID); err != nil {
		return "", nil, err
	}
	raw, err := c.stacks(sr.ID)
	if err != nil {
		return "", nil, err
	}
	if _, err := checkResult(raw, j.Hash); err != nil {
		return "", nil, fmt.Errorf("set-up job %s: %w", j.Spec.Label(), err)
	}
	return sr.ID, raw, nil
}

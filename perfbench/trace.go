package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed step of a request, recorded by the benchmark around
// its calls into a layer. Spans of one request share Req; Parent is the
// ID of the span that caused this one (0 for a request's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	next  int64
	reqs  int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newReq returns a fresh request identifier.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// add records a finished span and returns its ID for children.
func (t *tracer) add(name string, req, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
	return t.next
}

// setEnd closes a span recorded before its children finished.
func (t *tracer) setEnd(id int64, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(end.Sub(t.origin))
}

// selfSeconds sums each span name's self time: its duration minus the
// part of it covered by its children.
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]interval{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(selfTime(interval{s.Start, s.End}, children[s.ID])) / 1e9
	}
	return out
}

// write saves every span and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfSeconds()
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	b, err := json.MarshalIndent(struct {
		Spans  []span             `json:"spans"`
		SelfS  map[string]float64 `json:"self_s"`
		Origin string             `json:"origin"`
	}{spans, self, t.origin.UTC().Format(time.RFC3339Nano)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

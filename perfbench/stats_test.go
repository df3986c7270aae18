package main

import (
	"math"
	"testing"
	"time"
)

func TestTailLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 60, 101, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		tl, ok := tailOf(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > tl.Value {
				beyond++
			}
		}
		if beyond != tailMinBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailMinBeyond)
		}
		if want := 100 * float64(n-tailMinBeyond) / float64(n); math.Abs(tl.Pct-want) > 1e-9 || tl.Samples != n {
			t.Errorf("n=%d: tail at p%.3f of %d samples, want p%.3f of %d", n, tl.Pct, tl.Samples, want, n)
		}
	}
	if _, ok := tailOf(make([]float64, tailMinBeyond)); ok {
		t.Error("a tail was reported from too few samples")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"sticking out", []interval{{-20, 10}, {90, 150}}, 80},
		{"unordered", []interval{{70, 80}, {0, 10}, {5, 15}}, 75},
		{"outside", []interval{{200, 300}}, 100},
		{"covering", []interval{{-1, 101}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerSelfSeconds(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	req := tr.newReq()
	root := tr.add("job", req, 0, at(0), at(100))
	tr.add("wait", req, root, at(10), at(60))
	tr.add("sim", req, root, at(40), at(90))
	self := tr.selfSeconds()
	if math.Abs(self["job"]-0.020) > 1e-9 || math.Abs(self["wait"]-0.050) > 1e-9 {
		t.Errorf("self times %v", self)
	}
	var nilTracer *tracer
	if nilTracer.add("x", nilTracer.newReq(), 0, at(0), at(1)) != 0 {
		t.Error("a nil tracer recorded a span")
	}
}

func TestRatioBase(t *testing.T) {
	if v := (ratio{3, 4}).value(); v != 0.75 {
		t.Errorf("3/4 = %v", v)
	}
	if v := (ratio{0, 0}).value(); v != 0 {
		t.Errorf("an empty base gives %v, want 0", v)
	}
	// cache_hit_ratio's base is every admission, hits and misses.
	if v := (ratio{30, 30 + 10}).value(); v != 0.75 {
		t.Errorf("hit ratio %v", v)
	}
}

func TestRoundsFor(t *testing.T) {
	if n := (&runner{seconds: 20}).roundsFor(9 * time.Second); n != 2 {
		t.Errorf("20 s of 9 s rounds = %d", n)
	}
	if n := (&runner{seconds: 1}).roundsFor(9 * time.Second); n != 1 {
		t.Errorf("a short run measures %d rounds", n)
	}
	if n := (&runner{seconds: 1, traced: true}).roundsFor(9 * time.Second); n != 2 {
		t.Errorf("a short traced run measures %d rounds, want a traced and an untraced one", n)
	}
}

package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// value: the tail is the highest percentile the sample supports.
const tailMinBeyond = 10

// median returns the middle of xs (mean of the two middles for an even
// count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest-percentile latency with at least tailMinBeyond
// samples beyond it, together with that percentile and the sample count
// it was taken from.
type tail struct {
	Value   float64
	Pct     float64
	Samples int
}

// tailOf returns the tail of xs: the (tailMinBeyond+1)-th largest
// sample, so exactly tailMinBeyond samples are at or above the next
// rank. ok is false when xs has too few samples to support any tail.
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	if n <= tailMinBeyond {
		return tail{Samples: n}, false
	}
	s := sorted(xs)
	i := n - tailMinBeyond - 1
	return tail{Value: s[i], Pct: 100 * float64(i+1) / float64(n), Samples: n}, true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is num/den with its base kept, so a reported ratio always says
// what it was taken over. A zero base gives 0, not NaN: "no attempts"
// reads as "no hits", and the base in the report shows why.
type ratio struct {
	Num, Den float64
}

func (r ratio) value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

// interval is a half-open [Start, End) span of time in nanoseconds.
type interval struct{ Start, End int64 }

// selfTime returns the part of parent not covered by any child. Children
// may overlap each other and stick out of the parent; each instant is
// subtracted once and only inside the parent.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, c := range clipped {
		if c.Start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.Start, c.End
			continue
		}
		curE = max(curE, c.End)
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.End - parent.Start - covered
}

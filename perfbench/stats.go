package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile returns the q-quantile (0..1) by linear interpolation between
// closest ranks; 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// tail returns the highest of the conventional percentiles that still has
// at least ten samples beyond it, with its label ("p99"); ok is false when
// the set is too small for any tail (fewer than forty samples).
func (s samples) tail() (label string, v float64, ok bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(s))*(1-p/100) >= 10 {
			label = fmt.Sprintf("p%g", p)
			return label, s.quantile(p / 100), true
		}
	}
	return "", 0, false
}

// describe reports a latency set under the workload's name for it: median, tail
// and sample count.
func (s samples) describe(res *result, name string) {
	line := fmt.Sprintf("latency %-12s n=%-7d p50 %.4f ms", name, len(s), s.median())
	if label, v, ok := s.tail(); ok {
		line += fmt.Sprintf("  %s %.4f ms", label, v)
	}
	res.note("%s", line)
}

// median of a small set of float64 values.
func median(v []float64) float64 { return samples(v).median() }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20

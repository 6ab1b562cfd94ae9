package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it.
const minBeyond = 10

// percentiles are the ones a report may name, lowest first.
var percentiles = []float64{50, 90, 99, 99.9}

// sample is a set of latencies in nanoseconds.
type sample []int64

func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Slice(c, func(a, b int) bool { return c[a] < c[b] })
	return c
}

// rank returns the nearest-rank index of percentile p in n sorted samples.
func rank(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// supported reports whether at least minBeyond of n samples lie beyond
// percentile p.
func supported(p float64, n int) bool {
	return n > 0 && n-(rank(p, n)+1) >= minBeyond
}

// highestSupported returns the highest reportable percentile at most p,
// or false when even the median lacks support.
func highestSupported(p float64, n int) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range percentiles {
		if q <= p && supported(q, n) {
			best, ok = q, true
		}
	}
	return best, ok
}

// iqm returns the mean of the middle half of an already sorted sample
// (the interquartile mean), in microseconds.
func (s sample) iqm() float64 {
	if len(s) < 4 {
		return mean(s) / 1e3
	}
	return mean(s[len(s)/4:len(s)-len(s)/4]) / 1e3
}

// at returns percentile p of an already sorted sample, in microseconds.
func (s sample) at(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s[rank(p, len(s))]) / 1e3
}

// pctName is the metric name of percentile p with the given prefix, as
// in "p99_us" or "read_p50_us".
func pctName(prefix string, p float64) string {
	name := strings.ReplaceAll(fmt.Sprintf("p%g", p), ".", "")
	return prefix + name + "_us"
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c) == 0 {
		return 0
	}
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// ratio divides, reading 0/0 as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

import (
	"math"
	"sort"
)

// candidatePercentiles are the tail percentiles a report may quote, lowest
// first.
var candidatePercentiles = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a percentile before the
// report quotes it: with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// supportedPercentile returns the highest candidate percentile that has at
// least minBeyond of n samples beyond it, and false when even the median has
// not.
func supportedPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidatePercentiles {
		if n-rank(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile is the nearest-rank percentile of an ascending slice; 0 when it
// is empty (the sample count beside it says so).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// epsilon keeps products such as 0.9*100 = 90.00000000000001 from rounding up
// a whole rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method), so
// a spread computed here matches one computed by a driver written in Python.
// It needs at least two values.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

// dist summarises one latency class: never a minimum alone, always the
// sample count, the quartiles and the highest tail the count supports.
type dist struct {
	N     int     `json:"n"`
	P25   float64 `json:"p25"`
	P50   float64 `json:"p50"`
	P75   float64 `json:"p75"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Tail  float64 `json:"tail"`
	TailP float64 `json:"tail_percentile"`
}

func summarize(values []float64) dist {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	d := dist{
		N:   len(s),
		P25: percentile(s, 0.25), P50: percentile(s, 0.5), P75: percentile(s, 0.75),
		P90: percentile(s, 0.9), P99: percentile(s, 0.99),
	}
	if p, ok := supportedPercentile(len(s)); ok {
		d.Tail, d.TailP = percentile(s, p), p
	}
	return d
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

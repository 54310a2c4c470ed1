package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if n := len(s); n > 0 && n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return quantile(s, 0.5)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// succeeded drops the failed requests (negative latency) of a phase. A
// failed request misses any latency limit; it is counted in the run's
// failed total, which makes the run incorrect, so it need not also skew
// the percentiles.
func succeeded(lat []float64) []float64 {
	out := make([]float64, 0, len(lat))
	for _, x := range lat {
		if x >= 0 {
			out = append(out, x)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does (exclusive method), which is
// how the driver measures a metric's spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to count as measured rather than extrapolated.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailQuantile returns the nearest-rank q-quantile of sorted samples,
// lowered to the highest rank that still has at least minBeyond samples
// above it (but never below the median), together with the percentile
// of the rank it used.
func tailQuantile(sorted []float64, q float64) (value, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, q
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if limit := n - 1 - minBeyond; i > limit {
		i = limit
	}
	if median := int(math.Ceil(0.5*float64(n))) - 1; i < median {
		i = median
	}
	return sorted[i], float64(i+1) / float64(n)
}

// latencies collects one operation class's durations in milliseconds.
type latencies struct{ ms []float64 }

func (l *latencies) add(ms float64) { l.ms = append(l.ms, ms) }

func (l *latencies) n() int { return len(l.ms) }

func (l *latencies) sorted() []float64 {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	return s
}

// median returns the median in milliseconds.
func (l *latencies) median() float64 { return quantile(l.sorted(), 0.5) }

// tail returns the tailQuantile of the samples.
func (l *latencies) tail(q float64) (float64, float64) { return tailQuantile(l.sorted(), q) }

func (l *latencies) mean() float64 {
	if len(l.ms) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range l.ms {
		s += v
	}
	return s / float64(len(l.ms))
}

// medianOf returns the median of unsorted values.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is a/b, and 0 where there is nothing to divide by: a metric of a
// layer the workload never entered reads 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sample is one request of a load phase. Times are offsets from the
// phase start: when it was due, when it was actually sent, when its
// answer was complete.
type sample struct {
	due, sent, done time.Duration
}

// latency is what the user waited: from the instant the request was due.
func (s sample) latency() time.Duration { return s.done - s.due }

// service is what the system took once the request was really sent.
func (s sample) service() time.Duration { return s.done - s.sent }

// late is how far behind its schedule the generator sent the request.
func (s sample) late() time.Duration { return s.sent - s.due }

// sortedMS extracts one duration per sample, in milliseconds, ascending.
func sortedMS(samples []sample, of func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(of(s)) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// windowedPercentile splits samples into windows by due time, takes the
// p-th percentile of latency (ms) in each full window, and returns the
// median of those. One stall then spoils one window, not the run's tail.
func windowedPercentile(samples []sample, window time.Duration, p float64) float64 {
	var last time.Duration
	for _, s := range samples {
		if s.due > last {
			last = s.due
		}
	}
	full := int(last / window) // the final, partial window is dropped
	if full < 1 {
		return percentile(sortedMS(samples, sample.latency), p)
	}
	buckets := make([][]sample, full)
	for _, s := range samples {
		if w := int(s.due / window); w < full {
			buckets[w] = append(buckets[w], s)
		}
	}
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			per = append(per, percentile(sortedMS(b, sample.latency), p))
		}
	}
	return median(per)
}

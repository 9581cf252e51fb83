package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100), nearest rank, of a
// phase's frame latencies in µs. okLat holds answered frames; failLat holds,
// for each failed frame, the time from its due time until it failed. A failed
// frame is charged the client timeout plus that time, so it sorts after every
// answered frame (none of which took longer than the timeout) and a
// percentile that lands on failures reads above the timeout instead of
// hiding them. The second result reports whether the percentile landed on an
// answered frame.
func percentile(okLat, failLat []float64, p float64) (float64, bool) {
	n := len(okLat) + len(failLat)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	s := make([]float64, 0, n)
	s = append(s, okLat...)
	sort.Float64s(s)
	if rank <= len(s) {
		return s[rank-1], true
	}
	f := make([]float64, len(failLat))
	for i, v := range failLat {
		f[i] = float64(clientTimeout.Microseconds()) + v
	}
	sort.Float64s(f)
	return f[rank-len(s)-1], false
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// midMean returns the mean of xs without its lowest and highest quarter
// (at least one value from each end once there are three; the median for
// fewer). Dropping the extremes keeps a burst of host contention that hits
// a round or two from moving the result; averaging the rest, instead of
// picking the middle one, keeps a metric whose rounds fall into two modes
// from flipping between them from run to run.
func midMean(xs []float64) float64 {
	if len(xs) < 3 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	if k == 0 {
		k = 1
	}
	sum := 0.0
	for _, v := range s[k : len(s)-k] {
		sum += v
	}
	return sum / float64(len(s)-2*k)
}

// lateness summarises how far behind its schedule an open-loop generator
// sent: the p99 of send time minus due time, in µs.
func lateness(late []float64) float64 {
	v, _ := percentile(late, nil, 99)
	return v
}

// lateRivals reports whether the generator's own lateness could explain a
// measured tail: latency runs from the due time, so when the p99 lateness
// reaches half the p99 latency the tail is as much the generator's as the
// server's, and the phase is marked rather than published silently.
func lateRivals(lateP99, latP99 float64) bool {
	return latP99 > 0 && lateP99 >= latP99/2
}

// sleepOvershoot measures the host's timer overshoot: the median by which
// n sleeps of d each overran d, in µs.
func sleepOvershoot(n int, d time.Duration) float64 {
	over := make([]float64, n)
	for i := range over {
		t0 := time.Now()
		time.Sleep(d)
		over[i] = float64((time.Since(t0) - d).Nanoseconds()) / 1e3
	}
	return median(over)
}

package main

import (
	"math"
	"sort"
)

// minTailSamples is how many observations must lie beyond a reported
// tail percentile for it to mean anything.
const minTailSamples = 10

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples: the smallest r with r ≥ p% of n. The epsilon keeps exact
// products such as 90% of 100 from rounding up.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. xs need not be sorted; it is not modified.
// Failed operations enter as +Inf, so they count against the limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the 50th percentile with the two middle samples averaged,
// for the small sample sets of per-round and per-set-up timings.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally counts operations attempted and failed. A failure is any of: a
// non-2xx response, a transport error, a per-item batch error, or a
// summary that differs from the reference.
type tally struct {
	attempted, failed int
}

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// errorRate is failed ÷ attempted (0 when nothing was attempted).
func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a reported tail percentile must
// have at least this many samples strictly beyond it.
const minBeyond = 10

// tailLadder lists the candidate tail quantiles, highest first. p99 is
// the highest: a phase of tens of thousands of requests could support
// p99.9, but that figure is set by a few host stalls, and the same
// percentile on every serving run keeps the rate search comparable
// from probe to probe.
var tailLadder = []float64{0.99, 0.95, 0.9, 0.75}

// beyond returns how many of n sorted samples lie strictly above the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailQuantile picks the highest ladder quantile that has at least
// minBeyond samples beyond it. With too few samples for any of them it
// returns 0.5, the median.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// quantile returns the nearest-rank q-quantile of sorted samples (0 for
// none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// dist is a sample of one timing, kept in float units chosen by the
// caller (ms, µs or ns).
type dist struct {
	v []float64
}

func (d *dist) add(x float64) { d.v = append(d.v, x) }

func (d *dist) addDur(x time.Duration, unit time.Duration) {
	d.v = append(d.v, float64(x)/float64(unit))
}

func (d *dist) n() int { return len(d.v) }

func (d *dist) sorted() []float64 {
	s := append([]float64(nil), d.v...)
	sort.Float64s(s)
	return s
}

func (d *dist) q(q float64) float64 { return quantile(d.sorted(), q) }

// tail returns the rule's tail quantile and its value.
func (d *dist) tail() (q, v float64) {
	q = tailQuantile(len(d.v))
	return q, quantile(d.sorted(), q)
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// timeOp returns the median per-call duration of fn over reps batches
// of calls, each batch running for at least minBatch. Batching keeps the
// clock's own cost out of sub-microsecond measurements.
func timeOp(reps int, minBatch time.Duration, fn func()) time.Duration {
	// Size one batch: double until it takes minBatch.
	calls := 1
	for {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		if time.Since(t0) >= minBatch || calls >= 1<<24 {
			break
		}
		calls *= 2
	}
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0)) / float64(calls)
	}
	return time.Duration(median(per))
}

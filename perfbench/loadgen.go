package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one request's fate in an open-loop phase. Latency and lag
// are measured from the request's due time: lag is how late the
// generator sent it, latency how late its answer arrived.
type outcome struct {
	sent  bool
	lat   time.Duration
	lag   time.Duration
	err   error
	wrong bool
}

// phaseResult summarizes one open-loop phase.
type phaseResult struct {
	Name      string  `json:"name"`
	Rate      float64 `json:"rate_rps"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Aborted   bool    `json:"aborted,omitempty"`
	P50ms     float64 `json:"latency_p50_ms"`
	TailQ     float64 `json:"tail_quantile"`
	Tailms    float64 `json:"latency_tail_ms"`
	LagP99ms  float64 `json:"gen_lag_p99_ms"`
	Pass      *bool   `json:"pass,omitempty"`
	// RouteP50ms is each route's median latency, the terms of P50ms.
	RouteP50ms map[string]float64 `json:"route_p50_ms,omitempty"`

	lat, lag dist
	endLagMs float64
}

// sender issues request i of the stream and reports whether the answer
// was correct. It must be safe for concurrent use.
type sender func(ctx context.Context, i int) (wrong bool, err error)

// openLoop sends requests 0..n-1 at their due times, at arrival times
// at[i]/rate seconds after the start, from a fixed set of driver
// goroutines. A driver that falls more than abortLag behind stops the
// phase (it has already failed any latency limit).
func openLoop(at []float64, rate float64, drivers int, abortLag time.Duration, send sender) ([]outcome, bool) {
	n := len(at)
	out := make([]outcome, n)
	var next atomic.Int64
	var aborted atomic.Bool
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for !aborted.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(at[i] / rate * float64(time.Second)))
				waitUntil(due)
				t0 := time.Now()
				wrong, err := send(ctx, i)
				t1 := time.Now()
				out[i] = outcome{sent: true, lat: t1.Sub(due), lag: t0.Sub(due), err: err, wrong: wrong}
				if t0.Sub(due) > abortLag {
					aborted.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return out, aborted.Load()
}

// waitUntil spins until t, so a request is never sent early and rarely
// more than a few microseconds late. It never sleeps: a driver that
// sleeps between requests lets its processor park and the host halt the
// virtual CPU, and the next request then pays the host's wake-up, which
// grows and shrinks with other tenants' load. Spinning keeps every
// driver's processor awake for the whole phase, so latency is the program's own
// path. The spin does not yield either: a goroutine that yields in a
// loop always finds itself runnable again, so no processor goes idle to
// poll the network, and answers in flight wait for the runtime's
// background poll, milliseconds later. A spin that keeps its processor
// leaves the processor of a driver blocked on an answer free to poll.
func waitUntil(t time.Time) {
	for time.Now().Before(t) {
	}
}

// summarize folds a phase's outcomes into its result; routes[i] names
// request i's route.
func summarize(name string, rate float64, outs []outcome, routes []string, aborted bool) *phaseResult {
	pr := &phaseResult{Name: name, Rate: rate, Aborted: aborted}
	byRoute := map[string]*dist{}
	var lastLags []float64
	for i, o := range outs {
		if !o.sent {
			continue
		}
		pr.Sent++
		pr.lag.addDur(o.lag, time.Millisecond)
		if i >= len(outs)*9/10 {
			lastLags = append(lastLags, float64(o.lag)/float64(time.Millisecond))
		}
		if o.err != nil || o.wrong {
			pr.Failed++
			continue
		}
		pr.Succeeded++
		pr.lat.addDur(o.lat, time.Millisecond)
		d := byRoute[routes[i]]
		if d == nil {
			d = &dist{}
			byRoute[routes[i]] = d
		}
		d.addDur(o.lat, time.Millisecond)
	}
	pr.P50ms = mixMedian(byRoute)
	if len(byRoute) > 1 {
		pr.RouteP50ms = map[string]float64{}
		for r, d := range byRoute {
			pr.RouteP50ms[r] = d.q(0.5)
		}
	}
	pr.TailQ, pr.Tailms = pr.lat.tail()
	pr.LagP99ms = pr.lag.q(0.99)
	pr.endLagMs = median(lastLags)
	return pr
}

// mixMedian returns each route's median latency weighted by the
// route's share of the answered requests. The plain median of a mix of
// routes falls where one route's latencies give way to the next one's,
// where few samples lie, so a small shift of either moves it far; each
// route's own median sits inside its route's mass. For one route it is
// the plain median.
func mixMedian(byRoute map[string]*dist) float64 {
	names := make([]string, 0, len(byRoute))
	total := 0
	for r, d := range byRoute {
		names = append(names, r)
		total += d.n()
	}
	sort.Strings(names) // a fixed summation order
	m := 0.0
	for _, r := range names {
		d := byRoute[r]
		m += float64(d.n()) / float64(total) * d.q(0.5)
	}
	return m
}

// passes is the sustainable-rate predicate: every request answered
// correctly, the phase's pooled tail latency within the limit, and no
// backlog left growing at the end of the phase.
func (pr *phaseResult) passes(limitMs float64) bool {
	ok := !pr.Aborted && pr.Failed == 0 && pr.Tailms <= limitMs && pr.endLagMs <= limitMs/2
	pr.Pass = &ok
	return ok
}

// searchMaxRate returns the highest rate that passes, assuming pass is
// monotone (true up to a knee, false beyond). It brackets the knee by
// multiplying or dividing start by grow, then bisects the bracket in
// log space until its ends are within a factor 1+res. It returns 0 if
// no rate down to start/grow^maxBracket passes.
func searchMaxRate(start, grow, res float64, maxBracket int, pass func(rate float64) bool) float64 {
	lo, hi := 0.0, 0.0
	if pass(start) {
		lo = start
		for i := 0; i < maxBracket; i++ {
			r := lo * grow
			if !pass(r) {
				hi = r
				break
			}
			lo = r
		}
		if hi == 0 {
			return lo
		}
	} else {
		hi = start
		for i := 0; i < maxBracket; i++ {
			r := hi / grow
			if pass(r) {
				lo = r
				break
			}
			hi = r
		}
		if lo == 0 {
			return 0
		}
	}
	for hi/lo > 1+res {
		mid := math.Sqrt(lo * hi)
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

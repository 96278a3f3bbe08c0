// Package allocsvc is the online allocation service: it serves the
// repository's coordination decisions — the single-node COORD split,
// the dyncoord phase plan, a cluster scheduling round, a budget tree
// and an online re-coordination run — over HTTP, concurrently, with
// the degradation behaviour a production power-capped fleet needs.
// The paper's COORD heuristic exists to make allocation cheap enough
// to run online; FastCap and EcoShift both frame power capping as a
// continuously re-solved allocation problem, so the decision path must
// be a low-latency service rather than a batch job. Each route is
// declared once, as a Route descriptor (route.go), and every per-route
// piece of the service and of allocclient is derived from it.
//
// The service wraps three load-shedding layers around the pure
// decision functions:
//
//   - a bounded worker pool: at most Workers requests compute at once
//     (the heavy lifting inside — profiling and simulation — already
//     fans out through the shared evalpool engine and its memo cache);
//   - request coalescing: identical in-flight requests, keyed on a
//     content fingerprint of (route, platform, workload, budget, ...)
//     — the same content-key discipline as the evalpool memo cache —
//     share one computation and one rendered response body, so a
//     thundering herd of identical queries costs one evaluation.
//     Nothing is kept once the computation completes: the next
//     identical request computes again;
//   - backpressure: when the queue of admitted-but-not-yet-running
//     requests exceeds QueueDepth, new work is refused immediately with
//     429 and a Retry-After hint instead of being buffered without
//     bound, and every request carries a deadline (its own timeout_ms,
//     capped by DefaultMaxTimeout) after which the caller gets 504 even
//     if the shared computation later completes.
//
// Every computation builds what it needs per request: a /v1/schedule
// round constructs its cluster.Scheduler in place, and the job
// profiles the round consumes are memoized on the shared evaluation
// engine, which makes successive rounds cheap.
package allocsvc

import (
	"context"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/telemetry"
)

// Config parameterizes a Service. The zero value gets sensible
// defaults from New.
type Config struct {
	// Workers bounds concurrently computing requests; 0 or negative
	// means GOMAXPROCS.
	Workers int
	// QueueDepth bounds requests admitted beyond the ones actively
	// computing. When exceeded, new requests are refused with 429.
	// 0 means DefaultQueueDepth; negative disables queueing entirely
	// (every request beyond Workers is refused).
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request does
	// not carry its own timeout_ms. 0 means DefaultTimeout.
	DefaultTimeout time.Duration
	// RetryAfter scales the Retry-After hint attached to 429 responses:
	// it is the estimated time for the worker pool to drain one full
	// round of queued work. The actual hint is adaptive — see
	// adaptiveRetryAfter. 0 means DefaultRetryAfter.
	RetryAfter time.Duration
	// Registry receives the service's metrics (request counters by
	// route and status, latency histograms, in-flight gauge, coalesce
	// hits). nil leaves the service uninstrumented; the handles are
	// nil-safe no-ops.
	Registry *telemetry.Registry
	// Tables, when non-nil, serves coord and plan requests from
	// precomputed decision tables: covered requests are answered by an
	// O(1) interpolating lookup that bypasses the worker pool and the
	// coalescing layer entirely (the lookup is cheaper than queueing).
	// Requests the tables do not cover — unknown pairs, non-default
	// strategies, degraded pairs, budgets outside the tabulated range —
	// fall through to the exact path unchanged.
	Tables Tables
	// Binary enables the content-negotiated binary protocol on the
	// /v1/* routes: requests with Content-Type application/x-pbc-binary
	// are decoded as wire frames and answered in kind. When false such
	// requests are refused with 415 so operators can keep a JSON-only
	// surface.
	Binary bool
	// Now is the clock the service reads request start/finish times
	// from (latency histograms, Retry-After accounting). nil means
	// time.Now; tests inject a fake clock so the latency histogram is a
	// deterministic function of the scripted clock, the same discipline
	// the chaos suite uses for breaker clocks.
	Now func() time.Time
}

// Defaults for the Config knobs. DefaultMaxTimeout is fixed: it caps
// per-request deadlines and bounds the shared computation itself.
const (
	DefaultQueueDepth = 64
	DefaultTimeout    = 5 * time.Second
	DefaultMaxTimeout = 30 * time.Second
	DefaultRetryAfter = 1 * time.Second
)

// Service is the allocation service. Construct with New; the zero
// value is not usable. Safe for concurrent use.
type Service struct {
	cfg Config

	slots    chan struct{} // worker pool: one token per computing request
	inflight atomic.Int64  // leaders admitted (queued or computing)
	closed   atomic.Bool   // set by Close: stop admitting, drain

	calls flight.Group[*response] // in-flight computations by coalescing key

	m metrics

	stats serviceStats

	// slow, when non-nil, runs inside the worker slot before the
	// computation. Tests use it to hold slots occupied so deadline and
	// backpressure paths become deterministic.
	slow func()
}

// serviceStats are the process-local counters Stats snapshots; they
// exist independently of telemetry so harnesses (perfbench) can read
// them without a registry.
type serviceStats struct {
	requests    atomic.Uint64
	ok          atomic.Uint64
	badInput    atomic.Uint64
	rejected    atomic.Uint64
	timeouts    atomic.Uint64
	failures    atomic.Uint64
	coalesced   atomic.Uint64
	tableHits   atomic.Uint64
	tableMisses atomic.Uint64
}

// New returns a service with cfg's knobs, defaults applied.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = DefaultQueueDepth
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = DefaultTimeout
	}
	if cfg.DefaultTimeout > DefaultMaxTimeout {
		cfg.DefaultTimeout = DefaultMaxTimeout
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Service{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.Workers),
	}
	s.m.init(cfg.Registry)
	return s
}

// Workers returns the configured worker bound.
func (s *Service) Workers() int { return s.cfg.Workers }

// response is a fully rendered HTTP outcome, shared byte-for-byte by
// every coalesced caller.
type response struct {
	code int
	body []byte
	// retryAfter, when positive, attaches a Retry-After header of that
	// many seconds (429 responses carry the adaptive hint).
	retryAfter int
	// enc is the body's format (its Content-Type).
	enc encoding
}

// do runs one request through coalescing, backpressure, the worker
// pool, and the caller's deadline. compute must be a pure function of
// the key and return the rendered body. The first request for a key
// leads (internal/flight): its computation runs on its own goroutine,
// so a caller that gives up never blocks the others, and its entry is
// deleted when the computation completes. The returned response is shared across
// coalesced callers, so callers must not mutate it.
func (s *Service) do(ctx context.Context, route, key string, timeout time.Duration, enc encoding, compute func() ([]byte, error)) *response {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	c, leader := s.calls.Do(key, func() *response { return s.run(enc, compute) })
	if !leader {
		s.stats.coalesced.Add(1)
		s.m.coalesceHits(route).Inc()
	}
	select {
	case <-c.Done():
		return c.Val()
	case <-ctx.Done():
		// The shared computation keeps running for any other waiters;
		// this caller alone gives up.
		return enc.timeout(ctx.Err())
	}
}

// run executes compute inside the admission and worker-pool bounds.
// It always returns a response: errors are encoded, never escape.
func (s *Service) run(enc encoding, compute func() ([]byte, error)) *response {
	// Backpressure: refuse immediately when the service is saturated.
	// The increment happens before the closed check so Close, once it
	// observes zero inflight, cannot race with a leader that is about
	// to start computing.
	limit := int64(s.cfg.Workers + s.cfg.QueueDepth)
	n := s.inflight.Add(1)
	if s.closed.Load() {
		s.inflight.Add(-1)
		return enc.errorResponse(http.StatusServiceUnavailable, "service closing; not admitting new requests")
	}
	if n > limit {
		s.inflight.Add(-1)
		resp := enc.errorResponse(http.StatusTooManyRequests, "service saturated; retry later")
		resp.retryAfter = adaptiveRetryAfter(n, s.cfg.Workers, s.cfg.RetryAfter)
		return resp
	}
	defer s.inflight.Add(-1)

	// The computation itself is bounded by DefaultMaxTimeout regardless
	// of the leader's own deadline: followers with longer deadlines must
	// not inherit a shorter one, and an abandoned leader must not pin a
	// worker slot forever.
	ctx, cancel := context.WithTimeout(context.Background(), DefaultMaxTimeout)
	defer cancel()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return enc.timeout(ctx.Err())
	}
	defer func() { <-s.slots }()
	s.m.inflight.Inc()
	defer s.m.inflight.Dec()

	if s.slow != nil {
		s.slow()
	}
	body, err := compute()
	if err != nil {
		return enc.fail(err)
	}
	return enc.ok(body)
}

// maxRetryAfterSecs caps the adaptive Retry-After hint: past this the
// client should treat the service as down, not merely busy.
const maxRetryAfterSecs = 30

// adaptiveRetryAfter derives the 429 Retry-After hint from load at
// rejection time instead of a fixed constant: base is the estimated
// time for the worker pool to drain one full round of work, and the
// hint scales with how many such rounds the current queue represents.
// inflight includes the request being rejected. The hint is clamped to
// [1, maxRetryAfterSecs] whole seconds (the HTTP header's resolution).
func adaptiveRetryAfter(inflight int64, workers int, base time.Duration) int {
	if workers < 1 {
		workers = 1
	}
	queued := inflight - int64(workers)
	if queued < 0 {
		queued = 0
	}
	rounds := (queued + int64(workers) - 1) / int64(workers)
	if rounds < 1 {
		rounds = 1
	}
	secs := int(math.Ceil(base.Seconds() * float64(rounds)))
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSecs {
		secs = maxRetryAfterSecs
	}
	return secs
}

// Close drains the service: new requests are refused with 503 while
// already-admitted leaders (and the coalesced waiters sharing their
// results) run to completion. It returns nil once the last in-flight
// leader finishes, or ctx.Err() if the deadline expires with work
// still running. Close is idempotent and one-way: the service stays
// closed. Chaos restarts construct a fresh Service rather than
// reopening a drained one.
func (s *Service) Close(ctx context.Context) error {
	s.closed.Store(true)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Stats is a snapshot of the service counters.
type Stats struct {
	// Requests counts every request that reached a handler; OK,
	// BadInput, Rejected, Timeouts, and Failures partition the
	// responses by outcome (2xx, 4xx input, 429, 504, 5xx).
	Requests, OK, BadInput, Rejected, Timeouts, Failures uint64
	// Coalesced counts requests served by joining an identical
	// in-flight computation instead of running their own.
	Coalesced uint64
	// TableHits and TableMisses count decision-table lookups (only
	// taken when Config.Tables is set): hits were answered without
	// touching the worker pool, misses fell through to the exact path.
	TableHits, TableMisses uint64
}

// CoalesceRate returns coalesced over total requests (0 when idle).
func (st Stats) CoalesceRate() float64 {
	if st.Requests == 0 {
		return 0
	}
	return float64(st.Coalesced) / float64(st.Requests)
}

// TableHitRate returns table hits over total table lookups (0 when no
// lookup happened).
func (st Stats) TableHitRate() float64 {
	total := st.TableHits + st.TableMisses
	if total == 0 {
		return 0
	}
	return float64(st.TableHits) / float64(total)
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Requests:    s.stats.requests.Load(),
		OK:          s.stats.ok.Load(),
		BadInput:    s.stats.badInput.Load(),
		Rejected:    s.stats.rejected.Load(),
		Timeouts:    s.stats.timeouts.Load(),
		Failures:    s.stats.failures.Load(),
		Coalesced:   s.stats.coalesced.Load(),
		TableHits:   s.stats.tableHits.Load(),
		TableMisses: s.stats.tableMisses.Load(),
	}
}

// timeout resolves a request's timeout_ms field against the service
// bounds: 0 means the default, anything above DefaultMaxTimeout is
// clamped.
func (s *Service) timeout(ms int) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > DefaultMaxTimeout {
		d = DefaultMaxTimeout
	}
	return d
}

// count records a finished request's outcome in both the plain stats
// and the telemetry registry.
func (s *Service) count(route string, code int, elapsed time.Duration) {
	s.stats.requests.Add(1)
	switch {
	case code >= 200 && code < 300:
		s.stats.ok.Add(1)
	case code == http.StatusTooManyRequests:
		s.stats.rejected.Add(1)
	case code == http.StatusGatewayTimeout:
		s.stats.timeouts.Add(1)
	case code >= 400 && code < 500:
		s.stats.badInput.Add(1)
	default:
		s.stats.failures.Add(1)
	}
	s.m.requests(route, code).Inc()
	s.m.latency(route).Observe(elapsed.Seconds())
}

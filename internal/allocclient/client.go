package allocclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/allocsvc"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Response sources reported in Meta.Source.
const (
	// SourceShard: the answer came fresh from an allocsvc shard.
	SourceShard = "shard"
	// SourceLocal: every shard was unavailable and the answer was
	// computed in-process (degraded mode).
	SourceLocal = "degraded-local"
)

// ErrUnavailable reports that no shard could serve the request: every
// breaker was open, or the retry budget was exhausted without a usable
// response. Routes with a local fallback (Coord, Plan, Recoord)
// convert it into a degraded-local answer unless
// Config.DisableDegraded is set.
var ErrUnavailable = errors.New("allocclient: no shard available")

// ErrNoLocalFallback marks routes that cannot be served degraded-local
// even when degraded mode is on: Tree wraps ErrUnavailable in it (match
// either with errors.Is). A tree solve depends on server-side curve
// profiles and admission state, so a local answer would silently
// diverge from the fleet's.
var ErrNoLocalFallback = errors.New("allocclient: route has no degraded-local fallback")

// StatusError is a terminal HTTP error from a shard: the shard is
// healthy but rejected this request (4xx other than 429). It is never
// retried and never triggers degraded mode — a bad request is bad
// everywhere, including locally.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("allocclient: shard returned %d: %s", e.Code, e.Msg)
}

// Config configures a Client. Shards is required; every other field
// has a usable default.
type Config struct {
	// Shards is the allocsvc base URLs forming the ring, e.g.
	// ["http://10.0.0.1:8080", "http://10.0.0.2:8080"]. Order does not
	// affect placement (the ring hashes names), but every client must
	// use the same URL strings to route identically.
	Shards []string
	// Replicas is the virtual points per shard on the ring (default 64).
	Replicas int
	// MaxAttempts bounds total HTTP attempts per request, counting
	// retries and failovers (default max(4, 2*len(Shards))).
	MaxAttempts int
	// Timeout bounds each individual attempt (default 5s). The caller's
	// context bounds the whole call.
	Timeout time.Duration
	// RetryBase / RetryMax shape the capped exponential backoff with
	// full jitter (defaults 50ms / 2s). The server's Retry-After hint
	// overrides the computed backoff on 429.
	RetryBase time.Duration
	RetryMax  time.Duration
	// BudgetQuantum buckets budgets for ring placement (default 1.0
	// watts): nearby budgets share a shard so its profile and memo
	// caches stay hot, the same content-fingerprint discipline allocsvc
	// uses for coalescing. This affects placement only — requests carry
	// the exact budget.
	BudgetQuantum float64
	// Breaker tunes the per-shard circuit breakers.
	Breaker BreakerConfig
	// DisableDegraded turns off the in-process fallback; Coord, Plan
	// and Recoord then surface ErrUnavailable like Schedule does.
	DisableDegraded bool
	// Binary speaks the compact binary protocol
	// (application/x-pbc-binary) to shards that accept it. A shard that
	// answers 415 is demoted to JSON for the client's lifetime — mixed
	// fleets mid-rollout work without configuration. The two encodings
	// are content-identical, so demotion never changes an answer.
	Binary bool
	// Registry receives client metrics; nil means uninstrumented.
	Registry *telemetry.Registry
	// Transport overrides the per-shard pooled transports (tests).
	Transport http.RoundTripper
	// Now, Rand, and Sleep are injectable for deterministic tests:
	// breaker clocks, backoff jitter, and retry waits. Nil means the
	// real time.Now, a seeded math/rand-free default is NOT provided —
	// nil Rand uses a fixed 0.5 multiplier, keeping production behavior
	// dependency-free and tests explicit.
	Now   func() time.Time
	Rand  func() float64
	Sleep func(ctx context.Context, d time.Duration) error
	// OnTransition observes breaker state changes per shard URL; called
	// synchronously from the breaker, so keep it fast.
	OnTransition func(shard string, from, to BreakerState)
}

func (c Config) withDefaults() Config {
	if c.Replicas < 1 {
		c.Replicas = 64
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 2 * len(c.Shards)
		if c.MaxAttempts < 4 {
			c.MaxAttempts = 4
		}
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.BudgetQuantum <= 0 {
		c.BudgetQuantum = 1.0
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Rand == nil {
		c.Rand = func() float64 { return 0.5 }
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	return c
}

// Meta describes how a response was obtained.
type Meta struct {
	// Source is SourceShard or SourceLocal.
	Source string
	// Shard is the base URL that served the response (empty for
	// degraded-local answers).
	Shard string
	// Attempts is the number of HTTP attempts issued; Retries is
	// attempts beyond the first; Failovers counts moves to a different
	// shard than the previous attempt.
	Attempts, Retries, Failovers int
	// Binary reports that the serving shard answered over the binary
	// protocol (always false for degraded-local answers).
	Binary bool
}

// Client is a sharded, breaker-guarded allocsvc client. It is safe for
// concurrent use.
type Client struct {
	cfg      Config
	ring     *ring
	breakers []*breaker
	clients  []*http.Client
	owned    []*http.Transport
	met      clientMetrics
	// binaryOK[i] is whether shard i still accepts the binary protocol;
	// all-true when Config.Binary, cleared per shard on a 415.
	binaryOK []atomic.Bool
}

// New builds a client over the configured shard set.
func New(cfg Config) (*Client, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("allocclient: at least one shard URL is required")
	}
	cfg = cfg.withDefaults()
	shards := make([]string, len(cfg.Shards))
	for i, s := range cfg.Shards {
		s = strings.TrimRight(s, "/")
		if s == "" {
			return nil, fmt.Errorf("allocclient: shard %d has an empty URL", i)
		}
		shards[i] = s
	}
	cfg.Shards = shards
	c := &Client{
		cfg:      cfg,
		ring:     newRing(shards, cfg.Replicas),
		binaryOK: make([]atomic.Bool, len(shards)),
	}
	if cfg.Binary {
		for i := range c.binaryOK {
			c.binaryOK[i].Store(true)
		}
	}
	c.met.init(cfg.Registry)
	for i, url := range shards {
		url := url
		rt := cfg.Transport
		if rt == nil {
			t := &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			}
			c.owned = append(c.owned, t)
			rt = t
		}
		c.clients = append(c.clients, &http.Client{Transport: rt})
		c.breakers = append(c.breakers, newBreaker(cfg.Breaker, cfg.Now, func(from, to BreakerState) {
			c.met.breakerState(url).Set(float64(breakerGaugeValue(to)))
			if cfg.OnTransition != nil {
				cfg.OnTransition(url, from, to)
			}
		}))
		_ = i
	}
	return c, nil
}

// Close releases idle connections on transports the client created.
func (c *Client) Close() {
	for _, t := range c.owned {
		t.CloseIdleConnections()
	}
}

// BreakerStates snapshots every shard's breaker, keyed by base URL.
func (c *Client) BreakerStates() map[string]BreakerState {
	out := make(map[string]BreakerState, len(c.cfg.Shards))
	for i, url := range c.cfg.Shards {
		out[url] = c.breakers[i].snapshot()
	}
	return out
}

// quantizeBudget buckets a budget for ring placement.
func (c *Client) quantizeBudget(watts float64) string {
	return strconv.FormatInt(int64(math.Round(watts/c.cfg.BudgetQuantum)), 10)
}

// backoff computes the full-jitter wait before retry pass n (0-based):
// a uniform draw from [0, min(RetryMax, RetryBase·2ⁿ)].
func (c *Client) backoff(pass int) time.Duration {
	d := c.cfg.RetryBase << uint(pass)
	if d <= 0 || d > c.cfg.RetryMax {
		d = c.cfg.RetryMax
	}
	return time.Duration(c.cfg.Rand() * float64(d))
}

// retryAfter extracts the server's Retry-After hint in seconds, or 0.
func retryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// errorMessage extracts allocsvc's {"error": ...} body, falling back
// to the raw body.
func errorMessage(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

// respMessage extracts the error message from either encoding.
func respMessage(resp *http.Response, body []byte) string {
	if wire.IsContentType(resp.Header.Get("Content-Type")) {
		if e, err := wire.DecodeError(body); err == nil {
			return e.Message
		}
		return fmt.Sprintf("undecodable binary error frame (%d bytes)", len(body))
	}
	return errorMessage(body)
}

// attempt issues one POST to one shard and classifies the outcome.
func (c *Client) attempt(ctx context.Context, shard int, route string, body []byte, binary bool) (*http.Response, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost,
		c.cfg.Shards[shard]+route, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if binary {
		req.Header.Set("Content-Type", wire.ContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.clients[shard].Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	// The read cap must exceed the JSON body a huge schedule round can
	// legitimately produce — JSON is the designated fallback when a
	// round outgrows the binary frame cap, so it cannot share that cap.
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, nil, err
	}
	return resp, b, nil
}

// do drives one request to completion: walk the key's ring order
// skipping open breakers, retry transient failures with backoff,
// honor Retry-After on 429, fail over on transport errors and 5xx,
// and wrap total exhaustion in ErrUnavailable. When binBody is
// non-nil it is preferred over the JSON body on shards still marked
// binary-capable; a 415 demotes the shard and the attempt repeats
// there in JSON. The JSON body comes from marshal, called at most once
// and only when an attempt may send JSON: the request has no binary
// body (any more), or the shard about to be asked has been demoted.
// The shard's flag is read once, before its breaker is asked, and that
// read picks the body; so a concurrent demotion cannot leave an attempt
// without one, and a marshal error leaves every breaker untouched.
func (c *Client) do(ctx context.Context, route, key string, marshal func() ([]byte, error), binBody []byte) ([]byte, Meta, error) {
	meta := Meta{Source: SourceShard}
	var body []byte
	order := c.ring.order(key)
	var lastErr error
	cursor := 0      // index into order of the shard to try next
	prev := -1       // shard index of the previous attempt
	consecutive := 0 // failures since the last successful shard pick
	pass := 0        // completed sweeps of the ring, drives backoff growth

	for meta.Attempts < c.cfg.MaxAttempts {
		if err := ctx.Err(); err != nil {
			return nil, meta, err
		}
		// Pick the next shard on the ring whose breaker admits us.
		shard := -1
		useBinary := false
		for i := 0; i < len(order); i++ {
			s := order[(cursor+i)%len(order)]
			bin := binBody != nil && c.binaryOK[s].Load()
			if !bin && body == nil {
				var err error
				if body, err = marshal(); err != nil {
					return nil, meta, err
				}
			}
			if c.breakers[s].allow() {
				cursor = (cursor + i) % len(order)
				shard, useBinary = s, bin
				break
			}
		}
		if shard == -1 {
			if lastErr == nil {
				lastErr = errors.New("every shard breaker is open")
			}
			return nil, meta, fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
		}
		meta.Attempts++
		if meta.Attempts > 1 {
			meta.Retries++
			c.met.retries.Inc()
		}
		if prev >= 0 && shard != prev {
			meta.Failovers++
			c.met.failovers.Inc()
		}
		prev = shard

		sendBody := body
		if useBinary {
			sendBody = binBody
		}
		resp, respBody, err := c.attempt(ctx, shard, route, sendBody, useBinary)
		if err != nil {
			// Transport error, timeout, or severed connection: the
			// shard is suspect. Trip toward open and move on.
			c.breakers[shard].failure()
			lastErr = err
			cursor = (cursor + 1) % len(order)
			consecutive++
			if consecutive >= len(order) {
				consecutive = 0
				if serr := c.cfg.Sleep(ctx, c.backoff(pass)); serr != nil {
					return nil, meta, serr
				}
				pass++
			}
			continue
		}
		switch {
		case resp.StatusCode < 300:
			c.breakers[shard].success()
			meta.Shard = c.cfg.Shards[shard]
			meta.Binary = wire.IsContentType(resp.Header.Get("Content-Type"))
			return respBody, meta, nil
		case resp.StatusCode == http.StatusUnsupportedMediaType && useBinary:
			// The shard does not speak binary: demote it to JSON for
			// the client's lifetime and retry it immediately. The shard
			// is healthy — no breaker failure, no cursor advance.
			c.breakers[shard].success()
			c.binaryOK[shard].Store(false)
			c.met.binaryDemotions.Inc()
			lastErr = &StatusError{Code: resp.StatusCode, Msg: respMessage(resp, respBody)}
		case resp.StatusCode == http.StatusRequestEntityTooLarge && useBinary:
			// This request outgrew the binary frame format — the request
			// frame, or the response the shard tried to encode. The shard
			// still speaks binary (no lifetime demotion); only this
			// request falls back to JSON, retrying the same shard
			// immediately. The shard is healthy: no breaker failure, no
			// cursor advance.
			c.breakers[shard].success()
			binBody = nil
			c.met.binaryDemotions.Inc()
			lastErr = &StatusError{Code: resp.StatusCode, Msg: respMessage(resp, respBody)}
		case resp.StatusCode == http.StatusTooManyRequests:
			// The shard is alive and shedding load: not a breaker
			// failure. Honor its hint, then spread to the next shard.
			c.breakers[shard].success()
			lastErr = &StatusError{Code: resp.StatusCode, Msg: respMessage(resp, respBody)}
			wait := retryAfter(resp)
			if wait == 0 {
				wait = c.backoff(pass)
			}
			if serr := c.cfg.Sleep(ctx, wait); serr != nil {
				return nil, meta, serr
			}
			cursor = (cursor + 1) % len(order)
			consecutive = 0
		case resp.StatusCode >= 500:
			// 5xx includes allocsvc's 503 drain and 504 deadline
			// responses: the shard answered, but can't do the work.
			c.breakers[shard].failure()
			lastErr = &StatusError{Code: resp.StatusCode, Msg: respMessage(resp, respBody)}
			cursor = (cursor + 1) % len(order)
			consecutive++
			if consecutive >= len(order) {
				consecutive = 0
				if serr := c.cfg.Sleep(ctx, c.backoff(pass)); serr != nil {
					return nil, meta, serr
				}
				pass++
			}
		default:
			// Terminal 4xx: the shard is healthy, the request is not.
			// Retrying elsewhere cannot help.
			c.breakers[shard].success()
			meta.Shard = c.cfg.Shards[shard]
			return nil, meta, &StatusError{Code: resp.StatusCode, Msg: respMessage(resp, respBody)}
		}
	}
	return nil, meta, fmt.Errorf("%w: %d attempts exhausted, last error: %v",
		ErrUnavailable, meta.Attempts, lastErr)
}

// call drives one request on route rt: the route's defaults, a binary
// body when the client speaks binary and the route has a codec, the
// ring walk, and the route's policy on total shard loss — a typed
// refusal, a degraded-local answer, or ErrUnavailable.
func call[Req, Resp any](ctx context.Context, c *Client, rt *allocsvc.Route[Req, Resp], req Req) (Resp, Meta, error) {
	var zero Resp
	if rt.Normalize != nil {
		rt.Normalize(&req)
	}
	var binBody []byte
	if c.cfg.Binary && rt.AppendRequest != nil {
		// A request too large for the frame format is not an error: it
		// is exactly what the JSON fallback is for.
		var err error
		if binBody, err = rt.AppendRequest(nil, &req); err != nil {
			binBody = nil
			c.met.binaryDemotions.Inc()
		}
	}
	marshal := func() ([]byte, error) { return json.Marshal(req) }
	raw, meta, err := c.do(ctx, rt.Path, rt.ShardKey(&req, c.quantizeBudget), marshal, binBody)
	switch {
	case err == nil:
	case !errors.Is(err, ErrUnavailable):
		return zero, meta, err
	case rt.NoLocalFallback:
		return zero, meta, fmt.Errorf("%w: %w", ErrNoLocalFallback, err)
	case rt.Local == nil || c.cfg.DisableDegraded:
		return zero, meta, err
	default:
		resp, lerr := rt.Local(req)
		if lerr != nil {
			return zero, meta, lerr
		}
		meta.Source = SourceLocal
		meta.Shard = ""
		c.met.degraded.Inc()
		c.met.requests(rt.Path, SourceLocal).Inc()
		return resp, meta, nil
	}
	var resp Resp
	if meta.Binary && rt.DecodeResponse != nil {
		err = rt.DecodeResponse(raw, &resp)
	} else {
		err = json.Unmarshal(raw, &resp)
	}
	if err != nil {
		return zero, meta, fmt.Errorf("allocclient: decoding %s response: %w", path.Base(rt.Path), err)
	}
	c.met.requests(rt.Path, SourceShard).Inc()
	return resp, meta, nil
}

// Coord requests one coordination decision. When every shard is
// unavailable (and degraded mode is enabled) the answer is computed
// in-process — content-identical to a served one — and Meta.Source is
// SourceLocal.
func (c *Client) Coord(ctx context.Context, req allocsvc.CoordRequest) (allocsvc.CoordResponse, Meta, error) {
	return call(ctx, c, allocsvc.Coord, req)
}

// Plan requests a phase-aware plan, with the same degraded-local
// fallback as Coord.
func (c *Client) Plan(ctx context.Context, req allocsvc.PlanRequest) (allocsvc.PlanResponse, Meta, error) {
	return call(ctx, c, allocsvc.Plan, req)
}

// Recoord requests one online re-coordination run on a phased GPU
// workload, with the same degraded-local fallback as Coord: the
// controller is a pure function of the request. The route is
// JSON-only — no binary body is attempted.
func (c *Client) Recoord(ctx context.Context, req allocsvc.RecoordRequest) (allocsvc.RecoordResponse, Meta, error) {
	return call(ctx, c, allocsvc.Recoord, req)
}

// Schedule requests one scheduling round. There is no degraded-local
// fallback: total shard loss surfaces as ErrUnavailable.
func (c *Client) Schedule(ctx context.Context, req allocsvc.ScheduleRequest) (allocsvc.ScheduleResponse, Meta, error) {
	return call(ctx, c, allocsvc.Schedule, req)
}

// Tree requests one hierarchical budget division. Like Schedule there
// is no degraded-local fallback, but the refusal is typed: total shard
// loss surfaces as ErrNoLocalFallback wrapping ErrUnavailable, so
// callers can tell "the fleet is down and this route cannot degrade"
// from an ordinary outage.
func (c *Client) Tree(ctx context.Context, req allocsvc.TreeRequest) (allocsvc.TreeResponse, Meta, error) {
	return call(ctx, c, allocsvc.Tree, req)
}

// Peers is the body of GET /v1/peers on a pbc serve instance.
type Peers struct {
	Self  string   `json:"self"`
	Peers []string `json:"peers,omitempty"`
}

// Discover asks one serve instance for its shard topology and returns
// the full shard list to hand to New: the asked base URL (the address
// that demonstrably works from this vantage point) plus every peer the
// instance advertises, minus the instance's own advertised self address
// so it is not listed twice. An instance with no configured peers
// yields just the asked base URL.
func Discover(ctx context.Context, base string) ([]string, error) {
	base = strings.TrimRight(base, "/")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/peers", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, fmt.Errorf("allocclient: discover %s: %d: %s", base, resp.StatusCode, errorMessage(body))
	}
	var p Peers
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&p); err != nil {
		return nil, fmt.Errorf("allocclient: decoding peers from %s: %w", base, err)
	}
	shards := []string{base}
	for _, peer := range p.Peers {
		if peer = strings.TrimRight(peer, "/"); peer != base && peer != p.Self && peer != "" {
			shards = append(shards, peer)
		}
	}
	return shards, nil
}

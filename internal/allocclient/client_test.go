package allocclient

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/allocsvc"
	"repro/internal/telemetry"
)

func TestRingDeterministicAndCoversAllShards(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := newRing(names, 64)
	r2 := newRing(names, 64)
	keys := []string{"haswell|stream|100", "titanxp|gpustream|150", "epyc|dgemm|200", "x", ""}
	for _, k := range keys {
		a, b := r1.order(k), r2.order(k)
		if len(a) != len(names) {
			t.Fatalf("order(%q) = %v, want every shard exactly once", k, a)
		}
		seen := map[int]bool{}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("order(%q) differs across identical rings: %v vs %v", k, a, b)
			}
			if seen[a[i]] {
				t.Fatalf("order(%q) = %v repeats shard %d", k, a, a[i])
			}
			seen[a[i]] = true
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(names, 64)
	counts := make([]int, len(names))
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.order("key-" + strconv.Itoa(i))[0]]++
	}
	for s, c := range counts {
		// With 64 virtual points per shard the heaviest shard should
		// stay well under double its fair share.
		if c == 0 || c > 2*n/len(names) {
			t.Fatalf("shard %d owns %d/%d keys; spread too skewed: %v", s, c, n, counts)
		}
	}
}

func TestShardKeyQuantization(t *testing.T) {
	c, err := New(Config{Shards: []string{"http://a:1"}})
	if err != nil {
		t.Fatal(err)
	}
	key := func(budget float64) string {
		return allocsvc.Coord.ShardKey(&allocsvc.CoordRequest{
			Platform: "haswell", Workload: "stream", Budget: budget,
		}, c.quantizeBudget)
	}
	a := key(207.6)
	b := key(208.4)
	if a != b {
		t.Fatalf("budgets 207.6 and 208.4 should share a shard key at quantum 1: %q vs %q", a, b)
	}
	d := key(150)
	if a == d {
		t.Fatalf("budgets 208 and 150 should not share a shard key: both %q", a)
	}
}

// fakeClock is a manually advanced clock for breaker tests.
type fakeClock struct{ t atomic.Int64 }

func (f *fakeClock) now() time.Time          { return time.Unix(0, f.t.Load()) }
func (f *fakeClock) advance(d time.Duration) { f.t.Add(int64(d)) }

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{}
	var trace []string
	b := newBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second}, clk.now,
		func(from, to BreakerState) { trace = append(trace, from.String()+"->"+to.String()) })

	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.failure()
	}
	if got := b.snapshot(); got != BreakerClosed {
		t.Fatalf("after 2 failures: state %v, want closed (threshold 3)", got)
	}
	b.allow()
	b.failure()
	if got := b.snapshot(); got != BreakerOpen {
		t.Fatalf("after 3 consecutive failures: state %v, want open", got)
	}
	if b.allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}

	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("open breaker refused the half-open probe after cooldown")
	}
	if got := b.snapshot(); got != BreakerHalfOpen {
		t.Fatalf("after cooldown allow: state %v, want half-open", got)
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.failure()
	if got := b.snapshot(); got != BreakerOpen {
		t.Fatalf("after failed probe: state %v, want open", got)
	}

	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("no second probe after another cooldown")
	}
	b.success()
	if got := b.snapshot(); got != BreakerClosed {
		t.Fatalf("after successful probe: state %v, want closed", got)
	}
	want := []string{
		"closed->open", "open->half-open", "half-open->open",
		"open->half-open", "half-open->closed",
	}
	if len(trace) != len(want) {
		t.Fatalf("transition trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q (full: %v)", i, trace[i], want[i], trace)
		}
	}
}

// coordOK is a minimal healthy /v1/coord handler for client tests that
// don't need real allocation content.
func coordOK(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"platform":"haswell","workload":"stream","status":"ok"}` + "\n"))
}

// newTestClient builds a client over the given servers with instant
// injected sleeps (recorded into slept) and a fake clock.
func newTestClient(t *testing.T, urls []string, slept *[]time.Duration, mutate func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		Shards:  urls,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Second},
		Now:     (&fakeClock{}).now,
		Sleep: func(ctx context.Context, d time.Duration) error {
			if slept != nil {
				*slept = append(*slept, d)
			}
			return nil
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"busy"}`))
			return
		}
		coordOK(w, r)
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newTestClient(t, []string{srv.URL}, &slept, nil)
	resp, meta, err := c.Coord(context.Background(), allocsvc.CoordRequest{
		Platform: "haswell", Workload: "stream", Budget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || meta.Source != SourceShard || meta.Attempts != 2 || meta.Retries != 1 {
		t.Fatalf("resp.Status=%q meta=%+v, want ok after one retry", resp.Status, meta)
	}
	if len(slept) != 1 || slept[0] != 7*time.Second {
		t.Fatalf("slept %v, want exactly the server's 7s Retry-After hint", slept)
	}
}

func TestFailoverOnDeadShard(t *testing.T) {
	srvs := []*httptest.Server{
		httptest.NewServer(http.HandlerFunc(coordOK)),
		httptest.NewServer(http.HandlerFunc(coordOK)),
	}
	c := newTestClient(t, []string{srvs[0].URL, srvs[1].URL}, nil, nil)
	// Kill the request's home shard, so the request must fail over.
	// The ring hashes the shards' URLs, whose ports are random, so the
	// home shard is found rather than assumed.
	req := allocsvc.CoordRequest{Platform: "haswell", Workload: "stream", Budget: 100}
	home := c.ring.order(allocsvc.Coord.ShardKey(&req, c.quantizeBudget))[0]
	dead, live := srvs[home], srvs[1-home]
	defer live.Close()
	dead.Close() // connection refused from now on

	resp, meta, err := c.Coord(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || meta.Source != SourceShard || meta.Shard != live.URL {
		t.Fatalf("resp.Status=%q meta=%+v, want fresh answer from the live shard", resp.Status, meta)
	}
	if meta.Failovers < 1 {
		t.Fatalf("meta=%+v, want at least one failover", meta)
	}

	// A second identical request fails over again, tripping the dead
	// shard's breaker (threshold 2); the third goes straight to the
	// live shard with no failover.
	if _, _, err := c.Coord(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := c.BreakerStates()[dead.URL]; got != BreakerOpen {
		t.Fatalf("dead shard breaker %v after %d consecutive failures, want open", got, 2)
	}
	_, meta, err = c.Coord(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Failovers != 0 || meta.Attempts != 1 {
		t.Fatalf("meta=%+v, want direct hit on live shard once breaker is open", meta)
	}
}

func TestDegradedLocalWhenAllShardsDown(t *testing.T) {
	a := httptest.NewServer(http.HandlerFunc(coordOK))
	b := httptest.NewServer(http.HandlerFunc(coordOK))
	a.Close()
	b.Close()

	reg := telemetry.New()
	c := newTestClient(t, []string{a.URL, b.URL}, nil, func(cfg *Config) {
		cfg.Registry = reg
		cfg.MaxAttempts = 4
	})
	req := allocsvc.CoordRequest{Platform: "haswell", Workload: "stream", Budget: 300}
	resp, meta, err := c.Coord(context.Background(), req)
	if err != nil {
		t.Fatalf("degraded mode should absorb total shard loss: %v", err)
	}
	if meta.Source != SourceLocal || meta.Shard != "" {
		t.Fatalf("meta=%+v, want degraded-local with no shard", meta)
	}
	direct, err := allocsvc.ComputeCoord(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Alloc == nil || !reflect.DeepEqual(resp, direct) {
		t.Fatalf("degraded answer %+v differs from direct computation %+v", resp, direct)
	}
	if got := reg.Counter("allocclient_degraded_total", "").Value(); got != 1 {
		t.Fatalf("allocclient_degraded_total = %v, want 1", got)
	}

	// Plan degrades the same way; Schedule must not.
	plan, pmeta, err := c.Plan(context.Background(), allocsvc.PlanRequest{
		Platform: "haswell", Workload: "stream", Budget: 100,
	})
	if err != nil || pmeta.Source != SourceLocal || len(plan.Steps) == 0 {
		t.Fatalf("plan degraded err=%v meta=%+v steps=%d", err, pmeta, len(plan.Steps))
	}
	directPlan, err := allocsvc.ComputePlan(allocsvc.PlanRequest{
		Platform: "haswell", Workload: "stream", Budget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, directPlan) {
		t.Fatalf("degraded plan %+v differs from direct computation %+v", plan, directPlan)
	}

	// Recoord degrades the same way.
	rreq := allocsvc.RecoordRequest{Platform: "h100", Workload: "llmbatch", Budget: 300, Rounds: 1}
	rec, rmeta, err := c.Recoord(context.Background(), rreq)
	if err != nil || rmeta.Source != SourceLocal {
		t.Fatalf("recoord degraded err=%v meta=%+v", err, rmeta)
	}
	directRec, err := allocsvc.ComputeRecoord(rreq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, directRec) {
		t.Fatalf("degraded recoord %+v differs from direct computation %+v", rec, directRec)
	}
	_, _, err = c.Schedule(context.Background(), allocsvc.ScheduleRequest{
		Budget: 200,
		Nodes:  []allocsvc.NodeJSON{{ID: "n0", Platform: "haswell"}},
		Jobs:   []allocsvc.JobJSON{{ID: "j0", Workload: "stream"}},
	})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("schedule with all shards down: err=%v, want ErrUnavailable (no local fallback)", err)
	}
}

func TestDisableDegraded(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(coordOK))
	srv.Close()
	c := newTestClient(t, []string{srv.URL}, nil, func(cfg *Config) {
		cfg.DisableDegraded = true
		cfg.MaxAttempts = 2
	})
	_, _, err := c.Coord(context.Background(), allocsvc.CoordRequest{
		Platform: "haswell", Workload: "stream", Budget: 100,
	})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err=%v, want ErrUnavailable with degraded mode disabled", err)
	}
}

func TestTerminalBadRequestNotRetriedNotDegraded(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"unknown workload \"nope\""}`))
	}))
	defer srv.Close()
	c := newTestClient(t, []string{srv.URL}, nil, nil)
	_, meta, err := c.Coord(context.Background(), allocsvc.CoordRequest{
		Platform: "haswell", Workload: "nope", Budget: 100,
	})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err=%v, want terminal StatusError 400", err)
	}
	if meta.Source == SourceLocal {
		t.Fatal("terminal 400 must not fall back to degraded-local")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry of terminal 4xx)", got)
	}
}

func TestServerErrorsTripBreakerThenDegrade(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"boom"}`))
	}))
	defer srv.Close()
	reg := telemetry.New()
	c := newTestClient(t, []string{srv.URL}, nil, func(cfg *Config) {
		cfg.Registry = reg
		cfg.MaxAttempts = 5
	})
	resp, meta, err := c.Coord(context.Background(), allocsvc.CoordRequest{
		Platform: "haswell", Workload: "stream", Budget: 100,
	})
	if err != nil || meta.Source != SourceLocal {
		t.Fatalf("err=%v meta=%+v, want degraded-local after 5xx storm", err, meta)
	}
	if resp.Status == "" {
		t.Fatal("degraded answer is empty")
	}
	if got := c.BreakerStates()[srv.URL]; got != BreakerOpen {
		t.Fatalf("breaker %v after consecutive 5xx, want open", got)
	}
	if got := reg.Gauge("allocclient_breaker_state", "", "shard", srv.URL).Value(); got != 2 {
		t.Fatalf("allocclient_breaker_state = %v, want 2 (open)", got)
	}
}

func TestDiscover(t *testing.T) {
	var peers []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/peers" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(Peers{Self: "self", Peers: peers})
		w.Write(b)
	}))
	defer srv.Close()

	got, err := Discover(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != srv.URL {
		t.Fatalf("peerless discover = %v, want [%s]", got, srv.URL)
	}
	// With peers advertised, the list is the asked base URL plus every
	// peer, minus the instance's own self address ("self" here) and any
	// duplicate of the base — the client must end up with a ring that
	// includes the instance it discovered through.
	peers = []string{"http://a:1", "self", srv.URL, "http://b:1/"}
	got, err = Discover(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{srv.URL, "http://a:1", "http://b:1"}
	if len(got) != len(want) {
		t.Fatalf("discover = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("discover = %v, want %v", got, want)
		}
	}
}

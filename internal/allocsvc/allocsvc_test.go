package allocsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// post sends body to route on the test server and returns the full
// response.
func post(t *testing.T, srv *httptest.Server, route, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", route, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

// TestGoldenResponses pins the exact wire bytes of each route: the
// responses are pure functions of the request, so any drift is either
// an intended format change (update the goldens) or a regression.
func TestGoldenResponses(t *testing.T) {
	_, srv := newTestService(t, Config{Workers: 2})
	cases := []struct {
		name, route, body string
	}{
		{"coord_cpu", RouteCoord,
			`{"platform":"ivybridge","workload":"stream","budget_watts":208}`},
		{"coord_cpu_surplus", RouteCoord,
			`{"platform":"ivybridge","workload":"stream","budget_watts":400}`},
		{"coord_cpu_toosmall", RouteCoord,
			`{"platform":"ivybridge","workload":"stream","budget_watts":40}`},
		{"coord_gpu", RouteCoord,
			`{"platform":"titanxp","workload":"gpustream","budget_watts":180}`},
		{"coord_memfirst", RouteCoord,
			`{"platform":"haswell","workload":"dgemm","budget_watts":220,"strategy":"memory-first"}`},
		{"plan_ft", RoutePlan,
			`{"platform":"ivybridge","workload":"ft","budget_watts":180}`},
		{"schedule_mixed", RouteSchedule,
			`{"budget_watts":500,` +
				`"nodes":[{"id":"n1","platform":"ivybridge"},{"id":"n2","platform":"ivybridge"}],` +
				`"jobs":[{"id":"j1","workload":"stream"},{"id":"j2","workload":"dgemm"},{"id":"j3","workload":"mg"}]}`},
		{"err_unknown_platform", RouteCoord,
			`{"platform":"epyc","workload":"stream","budget_watts":100}`},
		{"err_kind_mismatch", RouteCoord,
			`{"platform":"titanv","workload":"stream","budget_watts":100}`},
		{"err_plan_gpu", RoutePlan,
			`{"platform":"titanv","workload":"gpustream","budget_watts":150}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, got := post(t, srv, tc.route, tc.body)
			if strings.HasPrefix(tc.name, "err_") {
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, got)
				}
			} else if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, got)
			}
			path := filepath.Join("testdata", tc.name+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("response drifted from golden:\ngot:  %s\nwant: %s", got, want)
			}
		})
	}
}

// TestRepeatedRequestsByteIdentical: the same request served twice —
// cold and warm caches — returns identical bytes.
func TestRepeatedRequestsByteIdentical(t *testing.T) {
	_, srv := newTestService(t, Config{Workers: 2})
	body := `{"platform":"haswell","workload":"stream","budget_watts":190}`
	_, first := post(t, srv, RouteCoord, body)
	_, second := post(t, srv, RouteCoord, body)
	if !bytes.Equal(first, second) {
		t.Errorf("repeated request bodies differ:\n%s\n%s", first, second)
	}
}

// TestCoalescedDuplicatesShareOneComputation holds a leader request in
// the worker, piles identical duplicates behind it, and checks that
// the duplicates were coalesced and every caller got byte-identical
// bytes.
func TestCoalescedDuplicatesShareOneComputation(t *testing.T) {
	svc, srv := newTestService(t, Config{Workers: 1})
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	var computed int
	var mu sync.Mutex
	svc.slow = func() {
		mu.Lock()
		computed++
		mu.Unlock()
		entered <- struct{}{}
		<-release
	}

	const dup = 4
	body := `{"platform":"ivybridge","workload":"dgemm","budget_watts":170}`
	bodies := make([][]byte, dup)
	codes := make([]int, dup)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, b := post(t, srv, RouteCoord, body)
		codes[0], bodies[0] = resp.StatusCode, b
	}()
	<-entered // leader is inside the worker slot

	for i := 1; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := post(t, srv, RouteCoord, body)
			codes[i], bodies[i] = resp.StatusCode, b
		}(i)
	}
	// Wait until every duplicate has joined the in-flight call.
	for start := time.Now(); svc.Stats().Coalesced < dup-1; {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("followers never coalesced: %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := 0; i < dup; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs from leader:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if computed != 1 {
		t.Errorf("computation ran %d times for %d identical requests", computed, dup)
	}
	if st := svc.Stats(); st.Coalesced != dup-1 {
		t.Errorf("Coalesced = %d, want %d", st.Coalesced, dup-1)
	}
}

// TestCoalescingContract pins what a coalesced call promises beyond
// sharing: a leader that gives up (timeout_ms 1, 504) leaves the
// computation running for a follower that joined it, which gets 200
// from that one computation; and nothing outlives the computation, so
// an identical request afterwards computes again and an error answer
// is never replayed.
func TestCoalescingContract(t *testing.T) {
	svc, srv := newTestService(t, Config{Workers: 1})
	release := make(chan struct{})
	var mu sync.Mutex
	computed := 0
	svc.slow = func() {
		mu.Lock()
		computed++
		mu.Unlock()
		<-release
	}
	computations := func() int {
		mu.Lock()
		defer mu.Unlock()
		return computed
	}

	const pair = `"platform":"ivybridge","workload":"dgemm","budget_watts":170`
	resp, body := post(t, srv, RouteCoord, `{`+pair+`,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("leader: status = %d, want 504; body %s", resp.StatusCode, body)
	}
	type result struct {
		code int
		body []byte
	}
	follower := make(chan result, 1)
	go func() {
		resp, body := post(t, srv, RouteCoord, `{`+pair+`}`)
		follower <- result{resp.StatusCode, body}
	}()
	for start := time.Now(); svc.Stats().Coalesced < 1; {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("follower never joined the abandoned computation: %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	got := <-follower
	if got.code != http.StatusOK {
		t.Fatalf("follower: status = %d, want 200; body %s", got.code, got.body)
	}
	if n := computations(); n != 1 {
		t.Fatalf("leader and follower ran %d computations, want 1", n)
	}

	if resp, body := post(t, srv, RouteCoord, `{`+pair+`}`); resp.StatusCode != http.StatusOK || !bytes.Equal(body, got.body) {
		t.Fatalf("repeat: status = %d, body %s; want 200 and %s", resp.StatusCode, body, got.body)
	}
	if n := computations(); n != 2 {
		t.Errorf("a request after completion computed %d times in all, want 2", n)
	}
	for i := 0; i < 2; i++ {
		resp, body := post(t, srv, RouteCoord, `{"platform":"ivybridge","workload":"dgemm","budget_watts":-5}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad budget %d: status = %d, want 400; body %s", i, resp.StatusCode, body)
		}
	}
	if n := computations(); n != 4 {
		t.Errorf("two identical bad requests brought the computations to %d, want 4: an error was replayed", n)
	}
	if st := svc.Stats(); st.Coalesced != 1 || st.Timeouts != 1 {
		t.Errorf("Coalesced = %d, Timeouts = %d; want 1, 1", st.Coalesced, st.Timeouts)
	}
}

// TestDeadlineExceededReturns504: a request whose deadline expires
// while the computation is still running gets 504, not a hung
// connection.
func TestDeadlineExceededReturns504(t *testing.T) {
	svc, srv := newTestService(t, Config{Workers: 1})
	release := make(chan struct{})
	svc.slow = func() { <-release }
	defer close(release)

	resp, body := post(t, srv, RouteCoord,
		`{"platform":"ivybridge","workload":"stream","budget_watts":208,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline exceeded") {
		t.Errorf("body %s does not mention the deadline", body)
	}
	if st := svc.Stats(); st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
}

// TestQueueFullReturns429 saturates a Workers=1, QueueDepth=0 service
// and checks that the next (distinct) request is refused immediately
// with 429 and a Retry-After hint.
func TestQueueFullReturns429(t *testing.T) {
	svc, srv := newTestService(t, Config{
		Workers: 1, QueueDepth: -1, RetryAfter: 2 * time.Second,
	})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	svc.slow = func() { entered <- struct{}{}; <-release }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, b := post(t, srv, RouteCoord,
			`{"platform":"ivybridge","workload":"stream","budget_watts":208}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("occupying request: status %d, body %s", resp.StatusCode, b)
		}
	}()
	<-entered // the single worker slot is now held

	resp, body := post(t, srv, RouteCoord,
		`{"platform":"ivybridge","workload":"dgemm","budget_watts":170}`)
	close(release)
	wg.Wait()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if st := svc.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
}

// TestBadInputs pins the client-error surface: wrong method, malformed
// body, unknown field, data after the JSON object, non-positive budget,
// empty cluster.
func TestBadInputs(t *testing.T) {
	_, srv := newTestService(t, Config{Workers: 2})

	resp, err := http.Get(srv.URL + RouteCoord)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}

	cases := []struct {
		name, route, body, wantIn string
	}{
		{"malformed", RouteCoord, `{"platform":`, "bad request body"},
		{"unknown_field", RouteCoord,
			`{"platform":"ivybridge","workload":"stream","budget":208}`, "bad request body"},
		{"zero_budget", RouteCoord,
			`{"platform":"ivybridge","workload":"stream","budget_watts":0}`, "budget_watts"},
		{"nan_budget", RoutePlan,
			`{"platform":"ivybridge","workload":"stream","budget_watts":-5}`, "budget_watts"},
		{"no_nodes", RouteSchedule,
			`{"budget_watts":500,"jobs":[{"id":"j","workload":"stream"}]}`, "node"},
		{"no_jobs", RouteSchedule,
			`{"budget_watts":500,"nodes":[{"id":"n","platform":"ivybridge"}]}`, "job"},
		{"bad_strategy", RouteCoord,
			`{"platform":"ivybridge","workload":"stream","budget_watts":208,"strategy":"magic"}`,
			"unknown CPU strategy"},
		{"trailing_garbage", RouteCoord,
			`{"platform":"ivybridge","workload":"stream","budget_watts":200}garbage`, "bad request body"},
		{"second_object", RouteCoord,
			`{"platform":"ivybridge","workload":"stream","budget_watts":200}{"platform":"haswell"}`,
			"bad request body"},
		{"trailing_array", RoutePlan,
			`{"platform":"ivybridge","workload":"stream","budget_watts":200} []`, "bad request body"},
		{"dup_node", RouteSchedule,
			`{"budget_watts":500,"nodes":[{"id":"n","platform":"ivybridge"},{"id":"n","platform":"ivybridge"}],` +
				`"jobs":[{"id":"j","workload":"stream"}]}`, "duplicate node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, srv, tc.route, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.wantIn) {
				t.Errorf("body %s does not mention %q", body, tc.wantIn)
			}
		})
	}
}

// collidingRounds are two /v1/schedule rounds whose node IDs and
// platforms, joined with the separators a naive key uses ("|", "="),
// spell the same string: a 2-node cluster and a 1-node cluster whose
// single node is named after both.
var collidingRounds = [2]string{
	`{"budget_watts":400,"nodes":[{"id":"n0","platform":"haswell"},{"id":"n1","platform":"ivybridge"}],` +
		`"jobs":[{"id":"j0","workload":"stream"},{"id":"j1","workload":"dgemm"}]}`,
	`{"budget_watts":400,"nodes":[{"id":"n0=haswell|n1","platform":"ivybridge"}],` +
		`"jobs":[{"id":"j0","workload":"stream"},{"id":"j1","workload":"dgemm"}]}`,
}

// TestCollidingKeysKeepRequestsApart: free-form IDs cannot make two
// different rounds share an answer, whatever the service keeps between
// them. The second round must get the answer a fresh service gives it,
// with placements only on its own node.
func TestCollidingKeysKeepRequestsApart(t *testing.T) {
	_, fresh := newTestService(t, Config{Workers: 2})
	resp, want := post(t, fresh, RouteSchedule, collidingRounds[1])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh round: status = %d, body %s", resp.StatusCode, want)
	}

	_, srv := newTestService(t, Config{Workers: 2})
	if resp, body := post(t, srv, RouteSchedule, collidingRounds[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("first round: status = %d, body %s", resp.StatusCode, body)
	}
	resp, got := post(t, srv, RouteSchedule, collidingRounds[1])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second round: status = %d, body %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("second round answered from the first round's cluster:\n got  %s\n want %s", got, want)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatal(err)
	}
	for _, pl := range out.Placements {
		if pl.Node != "n0=haswell|n1" {
			t.Errorf("placement on %q, a node the round does not name", pl.Node)
		}
	}
}

// TestAdaptiveRetryAfter pins the load → Retry-After mapping: the hint
// scales with how many worker-pool drains the current queue represents,
// clamped to [1, 30] whole seconds.
func TestAdaptiveRetryAfter(t *testing.T) {
	cases := []struct {
		name     string
		inflight int64
		workers  int
		base     time.Duration
		want     int
	}{
		{"empty_queue", 1, 4, time.Second, 1},
		{"first_reject_small_pool", 2, 1, 2 * time.Second, 2},
		{"one_round_queued", 3, 2, time.Second, 1},
		{"three_rounds_queued", 7, 2, time.Second, 3},
		{"subsecond_base_rounds_up", 10, 4, 500 * time.Millisecond, 1},
		{"subsecond_base_two_rounds", 13, 4, 500 * time.Millisecond, 2},
		{"deep_queue_clamped", 100, 2, time.Second, 30},
		{"zero_workers_guarded", 5, 0, time.Second, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := adaptiveRetryAfter(tc.inflight, tc.workers, tc.base); got != tc.want {
				t.Errorf("adaptiveRetryAfter(%d, %d, %v) = %d, want %d",
					tc.inflight, tc.workers, tc.base, got, tc.want)
			}
		})
	}
}

// TestRetryAfterScalesWithQueueDepth drives a saturated service twice —
// shallow and deep queue — and checks the wire header grows with load.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	svc, srv := newTestService(t, Config{
		Workers: 1, QueueDepth: -1, RetryAfter: time.Second,
	})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	svc.slow = func() { entered <- struct{}{}; <-release }
	defer close(release)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, srv, RouteCoord, `{"platform":"ivybridge","workload":"stream","budget_watts":208}`)
	}()
	<-entered

	resp, _ := post(t, srv, RouteCoord, `{"platform":"ivybridge","workload":"dgemm","budget_watts":170}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	// Workers=1, one computing, this request makes inflight 2: one
	// round of drain → the base hint.
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	wg.Wait()
}

// TestCloseDrains: Close refuses new work with 503 while the admitted
// request runs to completion, then returns nil.
func TestCloseDrains(t *testing.T) {
	svc, srv := newTestService(t, Config{Workers: 1})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	svc.slow = func() { entered <- struct{}{}; <-release }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, b := post(t, srv, RouteCoord,
			`{"platform":"ivybridge","workload":"stream","budget_watts":208}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("draining request: status %d, body %s", resp.StatusCode, b)
		}
	}()
	<-entered // the request is inside the worker

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed <- svc.Close(ctx)
	}()

	// Wait until Close has flipped the admission gate, then check new
	// work is refused.
	for start := time.Now(); !svc.closed.Load(); {
		if time.Since(start) > time.Second {
			t.Fatal("Close never set the closed flag")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := post(t, srv, RouteCoord,
		`{"platform":"ivybridge","workload":"dgemm","budget_watts":170}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-Close status = %d, want 503; body %s", resp.StatusCode, body)
	}

	select {
	case err := <-closed:
		t.Fatalf("Close returned %v before the in-flight request finished", err)
	default:
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v, want nil after drain", err)
	}
	wg.Wait()
}

// TestCloseDeadline: Close gives up with the ctx error when in-flight
// work outlives the drain budget.
func TestCloseDeadline(t *testing.T) {
	svc, srv := newTestService(t, Config{Workers: 1})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	svc.slow = func() { entered <- struct{}{}; <-release }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, srv, RouteCoord, `{"platform":"ivybridge","workload":"stream","budget_watts":208}`)
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := svc.Close(ctx); err != context.DeadlineExceeded {
		t.Errorf("Close = %v, want context.DeadlineExceeded", err)
	}
	close(release)
	wg.Wait()
}

// TestTelemetryRegistered: serving requests populates the service
// metric families on the registry.
func TestTelemetryRegistered(t *testing.T) {
	svc, srv := newTestService(t, Config{Workers: 2, Registry: telemetry.New()})
	_, _ = post(t, srv, RouteCoord,
		`{"platform":"ivybridge","workload":"stream","budget_watts":208}`)
	if got := svc.m.requests(RouteCoord, 200).Value(); got != 1 {
		t.Errorf("allocsvc_requests_total{/v1/coord,200} = %v, want 1", got)
	}
	if got := svc.m.inflight.Value(); got != 0 {
		t.Errorf("allocsvc_inflight = %v after quiescence, want 0", got)
	}
}

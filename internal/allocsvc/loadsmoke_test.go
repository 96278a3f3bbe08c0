package allocsvc

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/wire"
)

// TestLoadSmoke is the concurrency smoke the Makefile check gate runs
// under the race detector: many clients hammering a small binary-enabled
// worker pool with a mix of identical and distinct requests on all five
// routes, in both encodings, including two schedule rounds whose naively
// joined keys collide. It asserts the service stays consistent under
// load — every request gets a well-formed verdict (200 or 429, nothing
// else), responses for the same request are byte-identical no matter
// which client got them, the colliding rounds never share an answer,
// and the counters balance.
func TestLoadSmoke(t *testing.T) {
	svc := New(Config{Workers: 4, QueueDepth: 256, Binary: true})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	type request struct {
		route, contentType string
		body               []byte
	}
	jsonReq := func(route, body string) request {
		return request{route, "application/json", []byte(body)}
	}
	// binReq re-encodes a JSON body as the route's binary frame.
	binReq := func(route, body string, dec any, enc func() ([]byte, error)) request {
		t.Helper()
		if err := json.Unmarshal([]byte(body), dec); err != nil {
			t.Fatal(err)
		}
		frame, err := enc()
		if err != nil {
			t.Fatal(err)
		}
		return request{route, wire.ContentType, frame}
	}
	const (
		coordBody    = `{"platform":"ivybridge","workload":"stream","budget_watts":208}`
		planBody     = `{"platform":"ivybridge","workload":"ft","budget_watts":180}`
		scheduleBody = `{"budget_watts":500,` +
			`"nodes":[{"id":"n1","platform":"ivybridge"},{"id":"n2","platform":"ivybridge"}],` +
			`"jobs":[{"id":"j1","workload":"stream"},{"id":"j2","workload":"dgemm"}]}`
		recoordBody = `{"platform":"h100","workload":"llmbatch","budget_watts":300,"rounds":1}`
	)
	var (
		coord    CoordRequest
		plan     PlanRequest
		schedule ScheduleRequest
		tree     TreeRequest
		collide  [2]ScheduleRequest
	)
	reqs := []request{
		jsonReq(RouteCoord, coordBody),
		jsonReq(RouteCoord, `{"platform":"ivybridge","workload":"dgemm","budget_watts":170}`),
		jsonReq(RouteCoord, `{"platform":"haswell","workload":"stream","budget_watts":190}`),
		jsonReq(RouteCoord, `{"platform":"titanxp","workload":"gpustream","budget_watts":180}`),
		jsonReq(RoutePlan, planBody),
		jsonReq(RouteSchedule, scheduleBody),
		jsonReq(RouteTree, treeBody),
		jsonReq(RouteRecoord, recoordBody),
		binReq(RouteCoord, coordBody, &coord, func() ([]byte, error) { return wire.AppendCoordRequest(nil, &coord) }),
		binReq(RoutePlan, planBody, &plan, func() ([]byte, error) { return wire.AppendPlanRequest(nil, &plan) }),
		binReq(RouteSchedule, scheduleBody, &schedule,
			func() ([]byte, error) { return wire.AppendScheduleRequest(nil, &schedule) }),
		binReq(RouteTree, treeBody, &tree, func() ([]byte, error) { return wire.AppendTreeRequest(nil, &tree) }),
	}
	// The colliding rounds go last, each pair in one encoding; the
	// members of a pair must never share an answer.
	n := len(reqs)
	apart := [][2]int{{n, n + 1}, {n + 2, n + 3}}
	reqs = append(reqs,
		jsonReq(RouteSchedule, collidingRounds[0]),
		jsonReq(RouteSchedule, collidingRounds[1]),
		binReq(RouteSchedule, collidingRounds[0], &collide[0],
			func() ([]byte, error) { return wire.AppendScheduleRequest(nil, &collide[0]) }),
		binReq(RouteSchedule, collidingRounds[1], &collide[1],
			func() ([]byte, error) { return wire.AppendScheduleRequest(nil, &collide[1]) }),
	)

	const clients = 8
	const perClient = 40
	var mu sync.Mutex
	seen := make([][]byte, len(reqs)) // request index -> first 200 body
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				n := (c + i) % len(reqs)
				r := reqs[n]
				resp, err := http.Post(srv.URL+r.route, r.contentType, bytes.NewReader(r.body))
				if err != nil {
					t.Errorf("POST %s: %v", r.route, err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if ct := resp.Header.Get("Content-Type"); ct != r.contentType {
						t.Errorf("POST %s as %s answered as %s", r.route, r.contentType, ct)
					}
					mu.Lock()
					if prev := seen[n]; prev == nil {
						seen[n] = got
					} else if !bytes.Equal(prev, got) {
						t.Errorf("divergent responses for request %d on %s:\n%q\n%q", n, r.route, prev, got)
					}
					mu.Unlock()
				case http.StatusTooManyRequests:
					// Legal under saturation; nothing to check.
				default:
					t.Errorf("POST %s: status %d, body %q", r.route, resp.StatusCode, got)
				}
			}
		}(c)
	}
	wg.Wait()

	for _, p := range apart {
		if a, b := seen[p[0]], seen[p[1]]; a != nil && bytes.Equal(a, b) {
			t.Errorf("colliding requests %d and %d shared one answer: %q", p[0], p[1], a)
		}
	}
	st := svc.Stats()
	if want := uint64(clients * perClient); st.Requests != want {
		t.Errorf("Requests = %d, want %d", st.Requests, want)
	}
	if st.Failures != 0 || st.BadInput != 0 || st.Timeouts != 0 {
		t.Errorf("unexpected outcomes under load: %+v", st)
	}
	if st.OK+st.Rejected != st.Requests {
		t.Errorf("counters do not balance: %+v", st)
	}
	t.Logf("load smoke: %+v (coalesce rate %.1f%%)", st, 100*st.CoalesceRate())
}

package allocsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/nvgov"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/wire"
)

// TestLatencyHistogramDeterministic pins the request-latency histogram
// under an injected clock: a clock advancing a fixed step per reading
// makes every request's observed latency exactly one step, so the
// histogram's count, sum, and bucket placement are exact values, not
// wall-clock-dependent ranges. This is the regression net for the
// serving path's clock plumbing — a handler that reads time.Now
// directly (the old bug) produces nondeterministic observations and
// fails the exact-sum comparison.
func TestLatencyHistogramDeterministic(t *testing.T) {
	const step = 3 * time.Millisecond
	base := time.Unix(1700000000, 0)
	var ticks atomic.Int64
	reg := telemetry.New()
	_, srv := newTestService(t, Config{
		Workers:  2,
		Registry: reg,
		Now: func() time.Time {
			return base.Add(time.Duration(ticks.Add(1)-1) * step)
		},
	})

	const n = 5
	for i := 0; i < n; i++ {
		resp, _ := post(t, srv, RouteCoord,
			`{"platform":"ivybridge","workload":"stream","budget_watts":208}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

	// Each request reads the clock twice around the serve (start, then
	// finish), so every observation is exactly one step.
	want := 0.0
	for i := 0; i < n; i++ {
		want += step.Seconds()
	}

	var pt *telemetry.Point
	snap := reg.Snapshot()
	for i := range snap.Points {
		p := &snap.Points[i]
		if p.Name != "allocsvc_request_seconds" {
			continue
		}
		for _, l := range p.Labels {
			if l.Key == "route" && l.Value == RouteCoord {
				pt = p
			}
		}
	}
	if pt == nil {
		t.Fatal("no allocsvc_request_seconds series for /v1/coord")
	}
	if pt.Count != n {
		t.Fatalf("histogram count = %d, want %d", pt.Count, n)
	}
	if pt.Sum != want {
		t.Fatalf("histogram sum = %v, want exactly %v", pt.Sum, want)
	}
	for _, bk := range pt.Buckets {
		wantC := uint64(0)
		if bk.Upper >= step.Seconds() {
			wantC = n
		}
		if bk.Count != wantC {
			t.Errorf("bucket le=%v count = %d, want %d", bk.Upper, bk.Count, wantC)
		}
	}
}

// TestBinaryRequestBodyTooLarge413: a binary body past the frame cap
// answers 413 with a decodable binary error frame — not a generic 400 —
// so the client knows to retry the same request as JSON.
func TestBinaryRequestBodyTooLarge413(t *testing.T) {
	_, srv := newTestService(t, Config{Workers: 2, Binary: true})
	body := bytes.Repeat([]byte{0xAB}, maxBody+1)
	resp, err := http.Post(srv.URL+RouteCoord, BinaryContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	e, derr := wire.DecodeError(buf.Bytes())
	if derr != nil {
		t.Fatalf("response is not a binary error frame: %v", derr)
	}
	if e.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("frame code = %d, want 413", e.Code)
	}
	if !strings.Contains(e.Message, "JSON") {
		t.Fatalf("message %q does not point the client at the JSON fallback", e.Message)
	}
}

// TestJSONRequestBodyTooLarge413: an oversized JSON body is refused
// with 413 (the body may be perfectly well-formed, just too big) rather
// than the 400 the old MaxBytesReader-to-bad-request mapping produced.
func TestJSONRequestBodyTooLarge413(t *testing.T) {
	_, srv := newTestService(t, Config{Workers: 2})
	pad := strings.Repeat("x", maxJSONBody)
	body := `{"platform":"` + pad + `","workload":"stream","budget_watts":208}`
	resp, got := post(t, srv, RouteCoord, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (%s), want 413", resp.StatusCode, got)
	}
	// A body exactly at the cap still parses (and fails validation on
	// its merits, not its size).
	okBody := `{"platform":"nope","workload":"stream","budget_watts":208}`
	resp, _ = post(t, srv, RouteCoord, okBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("in-cap bad platform: status = %d, want 400", resp.StatusCode)
	}
}

// TestRegressCoordBudgetBelowCapFloorRejected is the satellite
// regression for the silent-clamp bug: a GPU coordination budget below
// the card's settable cap floor used to be evaluated at a clamped cap
// the budget could not fund, returning a plausible 200 whose allocation
// exceeded the budget. The service must instead answer 400 carrying
// the card's typed rejection, and the floor itself must still be
// accepted.
func TestRegressCoordBudgetBelowCapFloorRejected(t *testing.T) {
	_, srv := newTestService(t, Config{Workers: 2})
	cases := []struct {
		platform, wl string
		budget       float64
	}{
		{"h100", "llmserve", 150},   // H100 floor is 200 W
		{"h200", "llmchat", 199.99}, // just under the floor
		{"titanxp", "gpustream", 90},
		{"titanv", "gpustream", 90}, // degenerate pair: TotMax < floor
	}
	for _, tc := range cases {
		// The exported exact path carries the typed cause.
		req := wire.CoordRequest{Platform: tc.platform, Workload: tc.wl,
			Budget: tc.budget, Strategy: "coord"}
		_, err := ComputeCoord(req)
		if !errors.Is(err, nvgov.ErrCapOutOfRange) {
			t.Fatalf("%s/%s b=%v: ComputeCoord error = %v, want nvgov.ErrCapOutOfRange",
				tc.platform, tc.wl, tc.budget, err)
		}
		var cre *nvgov.CapRangeError
		if !errors.As(err, &cre) {
			t.Fatalf("%s/%s: error %v does not carry *nvgov.CapRangeError", tc.platform, tc.wl, err)
		}
		p, perr := hw.PlatformByName(tc.platform)
		if perr != nil {
			t.Fatal(perr)
		}
		if cre.Cap != units.Power(tc.budget) || cre.Min != p.GPU.MinCap || cre.Max != p.GPU.MaxCap {
			t.Fatalf("%s/%s: CapRangeError = %+v, want cap %v in [%v, %v]",
				tc.platform, tc.wl, cre, tc.budget, p.GPU.MinCap, p.GPU.MaxCap)
		}

		// And the HTTP surface maps it to an actionable 400.
		body := fmt.Sprintf(`{"platform":%q,"workload":%q,"budget_watts":%v}`,
			tc.platform, tc.wl, tc.budget)
		resp, got := post(t, srv, RouteCoord, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s/%s b=%v: status = %d (%s), want 400 (the old clamp answered 200)",
				tc.platform, tc.wl, tc.budget, resp.StatusCode, got)
		}
		for _, want := range []string{"settable", "floor"} {
			if !strings.Contains(string(got), want) {
				t.Fatalf("%s/%s: 400 body %s does not mention %q", tc.platform, tc.wl, got, want)
			}
		}
	}

	// The floor itself is enforceable: h100 at exactly 200 W coordinates.
	resp, got := post(t, srv, RouteCoord,
		`{"platform":"h100","workload":"llmserve","budget_watts":200}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget at the floor: status = %d (%s), want 200", resp.StatusCode, got)
	}
}

// TestOversizeBinaryResponse413: a computed response that does not fit
// a binary frame (a huge schedule round) renders as a 413 error frame
// telling the client to retry in JSON — never a truncated frame.
func TestOversizeBinaryResponse413(t *testing.T) {
	huge := ScheduleResponse{}
	id := strings.Repeat("j", 1<<10)
	for len(huge.Deferred) < wire.MaxFrame/len(id)+2 {
		huge.Deferred = append(huge.Deferred, id)
	}
	body, err := Schedule.appendResponse(nil, &huge)
	if err == nil {
		t.Fatalf("a %d-entry deferred list encoded into a %d-byte frame", len(huge.Deferred), len(body))
	}
	resp := binaryEncoding.fail(err)
	if resp.code != http.StatusRequestEntityTooLarge {
		t.Fatalf("code = %d, want 413", resp.code)
	}
	if resp.enc != binaryEncoding {
		t.Fatal("oversize response must still answer in the negotiated encoding")
	}
	e, err := wire.DecodeError(resp.body)
	if err != nil {
		t.Fatalf("413 body is not a binary error frame: %v", err)
	}
	if e.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("frame code = %d, want 413", e.Code)
	}
}

// TestScheduleDuplicateJobIDRejected: a /v1/schedule round answers its
// placements by job ID, so a round whose jobs share an ID (x/stream on
// ivybridge, x/sgemm on titanxp) is a 400 naming the ID, over JSON and
// binary alike, not two placements both named x.
func TestScheduleDuplicateJobIDRejected(t *testing.T) {
	const body = `{"budget_watts":600,` +
		`"nodes":[{"id":"n0","platform":"ivybridge"},{"id":"n1","platform":"titanxp"}],` +
		`"jobs":[{"id":"x","workload":"stream"},{"id":"x","workload":"sgemm"}]}`
	const want = `duplicate job ID \"x\"`
	svc, srv := newTestService(t, Config{Workers: 1, Binary: true})
	resp, got := post(t, srv, RouteSchedule, body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(got), want) {
		t.Errorf("JSON: status %d, body %s; want 400 naming the ID", resp.StatusCode, got)
	}

	var req ScheduleRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendScheduleRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	code, _, out := svc.ServeBinary(context.Background(), frame, nil)
	e, err := wire.DecodeError(out)
	if code != http.StatusBadRequest || err != nil || e.Code != http.StatusBadRequest || !strings.Contains(e.Message, `duplicate job ID "x"`) {
		t.Errorf("binary: code %d, error frame %+v (%v); want 400 naming the ID", code, e, err)
	}
}

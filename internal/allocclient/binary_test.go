package allocclient

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/allocsvc"
	"repro/internal/wire"
)

// TestBinaryRoundTrip drives a binary-enabled client against a real
// binary-enabled allocsvc and checks the answers are content-identical
// to the JSON path on every route: coord, plan, schedule and tree over
// binary, and recoord, which stays JSON-only even on a binary client.
func TestBinaryRoundTrip(t *testing.T) {
	svc := allocsvc.New(allocsvc.Config{Workers: 2, Binary: true})
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	bc := newTestClient(t, []string{srv.URL}, nil, func(cfg *Config) { cfg.Binary = true })
	jc := newTestClient(t, []string{srv.URL}, nil, nil)

	ctx := context.Background()
	creq := allocsvc.CoordRequest{Platform: "haswell", Workload: "stream", Budget: 180}
	bresp, bmeta, err := bc.Coord(ctx, creq)
	if err != nil {
		t.Fatalf("binary coord: %v", err)
	}
	if !bmeta.Binary {
		t.Fatal("binary client got a JSON coord answer from a binary-enabled shard")
	}
	jresp, jmeta, err := jc.Coord(ctx, creq)
	if err != nil {
		t.Fatalf("json coord: %v", err)
	}
	if jmeta.Binary {
		t.Fatal("json client reported a binary answer")
	}
	if !reflect.DeepEqual(bresp, jresp) {
		t.Fatalf("binary and JSON coord answers differ:\n  bin:  %+v\n  json: %+v", bresp, jresp)
	}

	preq := allocsvc.PlanRequest{Platform: "haswell", Workload: "bt", Budget: 160}
	bplan, bmeta, err := bc.Plan(ctx, preq)
	if err != nil {
		t.Fatalf("binary plan: %v", err)
	}
	if !bmeta.Binary {
		t.Fatal("plan did not use the binary protocol")
	}
	jplan, _, err := jc.Plan(ctx, preq)
	if err != nil {
		t.Fatalf("json plan: %v", err)
	}
	if !reflect.DeepEqual(bplan, jplan) {
		t.Fatalf("binary and JSON plans differ:\n  bin:  %+v\n  json: %+v", bplan, jplan)
	}

	sreq := allocsvc.ScheduleRequest{
		Budget: 500,
		Nodes:  []allocsvc.NodeJSON{{ID: "n0", Platform: "haswell"}},
		Jobs:   []allocsvc.JobJSON{{ID: "j0", Workload: "stream"}},
	}
	bsched, bmeta, err := bc.Schedule(ctx, sreq)
	if err != nil {
		t.Fatalf("binary schedule: %v", err)
	}
	if !bmeta.Binary {
		t.Fatal("schedule did not use the binary protocol")
	}
	if len(bsched.Placements) == 0 {
		t.Fatal("binary schedule placed no jobs")
	}
	jsched, _, err := jc.Schedule(ctx, sreq)
	if err != nil {
		t.Fatalf("json schedule: %v", err)
	}
	if !reflect.DeepEqual(bsched, jsched) {
		t.Fatalf("binary and JSON schedules differ:\n  bin:  %+v\n  json: %+v", bsched, jsched)
	}

	treq := allocsvc.TreeRequest{
		Budget: 700,
		Racks: []allocsvc.TreeRackJSON{
			{ID: "cpu", CapWatts: 400, Nodes: []allocsvc.TreeNodeJSON{
				{ID: "cpu/0", Platform: "ivybridge", Workload: "stream", Priority: 1},
				{ID: "cpu/1", Platform: "haswell", Workload: "dgemm"},
			}},
			{ID: "gpu", Nodes: []allocsvc.TreeNodeJSON{
				{ID: "gpu/0", Platform: "titanxp", Workload: "gpustream"},
			}},
		},
	}
	btree, bmeta, err := bc.Tree(ctx, treq)
	if err != nil {
		t.Fatalf("binary tree: %v", err)
	}
	if !bmeta.Binary {
		t.Fatal("tree did not use the binary protocol")
	}
	jtree, _, err := jc.Tree(ctx, treq)
	if err != nil {
		t.Fatalf("json tree: %v", err)
	}
	if !reflect.DeepEqual(btree, jtree) {
		t.Fatalf("binary and JSON trees differ:\n  bin:  %+v\n  json: %+v", btree, jtree)
	}

	// Recoord is JSON-only: a binary client still gets a JSON answer,
	// on the first attempt, without demoting the shard.
	rreq := allocsvc.RecoordRequest{Platform: "h100", Workload: "llmbatch", Budget: 300, Rounds: 1}
	brec, bmeta, err := bc.Recoord(ctx, rreq)
	if err != nil {
		t.Fatalf("recoord on a binary client: %v", err)
	}
	if bmeta.Binary || bmeta.Attempts != 1 {
		t.Fatalf("recoord meta = %+v, want one JSON attempt", bmeta)
	}
	if !bc.binaryOK[0].Load() {
		t.Fatal("a recoord call must not demote the shard")
	}
	jrec, _, err := jc.Recoord(ctx, rreq)
	if err != nil {
		t.Fatalf("json recoord: %v", err)
	}
	if !reflect.DeepEqual(brec, jrec) {
		t.Fatalf("recoord answers differ across clients:\n  bin:  %+v\n  json: %+v", brec, jrec)
	}
}

// TestBinaryErrorDecoded checks that terminal errors arriving as binary
// frames surface the server's message, not frame bytes.
func TestBinaryErrorDecoded(t *testing.T) {
	svc := allocsvc.New(allocsvc.Config{Workers: 2, Binary: true})
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	c := newTestClient(t, []string{srv.URL}, nil, func(cfg *Config) { cfg.Binary = true })
	_, _, err := c.Coord(context.Background(), allocsvc.CoordRequest{
		Platform: "haswell", Workload: "no-such-workload", Budget: 100,
	})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want a 400 StatusError", err)
	}
	if !strings.Contains(se.Msg, "no-such-workload") {
		t.Fatalf("error message lost the server detail: %q", se.Msg)
	}
}

// TestBinaryDemotionOn415 checks the mixed-fleet path: a shard without
// the binary surface answers 415 once, is demoted, and every request —
// including the demoting one — completes over JSON.
func TestBinaryDemotionOn415(t *testing.T) {
	svc := allocsvc.New(allocsvc.Config{Workers: 2}) // Binary NOT enabled
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	c := newTestClient(t, []string{srv.URL}, nil, func(cfg *Config) { cfg.Binary = true })
	req := allocsvc.CoordRequest{Platform: "haswell", Workload: "stream", Budget: 180}
	resp, meta, err := c.Coord(context.Background(), req)
	if err != nil {
		t.Fatalf("coord against a JSON-only shard: %v", err)
	}
	if meta.Binary {
		t.Fatal("JSON-only shard cannot have answered in binary")
	}
	if meta.Source != SourceShard {
		t.Fatalf("source = %q; the 415 must demote, not degrade to local", meta.Source)
	}
	if resp.Status != "ok" {
		t.Fatalf("status = %q, want ok", resp.Status)
	}
	if c.binaryOK[0].Load() {
		t.Fatal("shard still marked binary-capable after a 415")
	}
	// The demotion sticks: the next request goes straight to JSON with
	// a single attempt.
	_, meta, err = c.Coord(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Attempts != 1 {
		t.Fatalf("post-demotion attempts = %d, want 1", meta.Attempts)
	}
}

// TestBinaryPerRequestDemotionOn413 checks the frame-cap path: a shard
// that answers 413 to a binary request (the response outgrew the frame
// format) gets the same request again in JSON immediately — but unlike
// 415, the shard keeps its binary capability for future requests.
func TestBinaryPerRequestDemotionOn413(t *testing.T) {
	svc := allocsvc.New(allocsvc.Config{Workers: 2, Binary: true})
	defer svc.Close(context.Background())
	inner := svc.Handler()
	var binaryHits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.Header.Get("Content-Type"), allocsvc.BinaryContentType) {
			binaryHits++
			w.Header().Set("Content-Type", allocsvc.BinaryContentType)
			w.WriteHeader(http.StatusRequestEntityTooLarge)
			w.Write(wire.AppendError(nil, http.StatusRequestEntityTooLarge,
				"binary response exceeds frame cap; retry as JSON"))
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := newTestClient(t, []string{srv.URL}, nil, func(cfg *Config) { cfg.Binary = true })
	req := allocsvc.CoordRequest{Platform: "haswell", Workload: "stream", Budget: 180}
	resp, meta, err := c.Coord(context.Background(), req)
	if err != nil {
		t.Fatalf("coord through a 413ing shard: %v", err)
	}
	if meta.Binary {
		t.Fatal("the 413 answer cannot have been accepted as binary")
	}
	if meta.Source != SourceShard || resp.Status != "ok" {
		t.Fatalf("want a fresh shard answer, got source=%q status=%q", meta.Source, resp.Status)
	}
	if meta.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (binary 413, then JSON)", meta.Attempts)
	}
	if !c.binaryOK[0].Load() {
		t.Fatal("413 must not demote the shard for the client's lifetime")
	}
	// The next request tries binary again: 413 demotion is per-request.
	before := binaryHits
	if _, _, err := c.Coord(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if binaryHits != before+1 {
		t.Fatalf("second request made %d binary attempts, want 1", binaryHits-before)
	}
}

// TestPreflightDemotionOnOversizeRequest: a request too large for the
// binary frame format never leaves the client as binary — the encoder's
// ErrFrameTooLarge preflight sends it as JSON on the first attempt.
func TestPreflightDemotionOnOversizeRequest(t *testing.T) {
	svc := allocsvc.New(allocsvc.Config{Workers: 2, Binary: true})
	defer svc.Close(context.Background())
	var binaryAttempts int
	inner := svc.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.Header.Get("Content-Type"), allocsvc.BinaryContentType) {
			binaryAttempts++
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := newTestClient(t, []string{srv.URL}, nil, func(cfg *Config) { cfg.Binary = true })
	// A workload name past the 64 KiB string-field cap cannot encode;
	// the server rejects it on its merits (unknown workload) over JSON,
	// proving the request traveled and failed validation, not encoding.
	req := allocsvc.CoordRequest{
		Platform: "haswell", Workload: strings.Repeat("w", 1<<16+1), Budget: 180,
	}
	_, _, err := c.Coord(context.Background(), req)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want the server's 400 StatusError", err)
	}
	if binaryAttempts != 0 {
		t.Fatalf("oversized request attempted binary %d times, want 0", binaryAttempts)
	}
	if !c.binaryOK[0].Load() {
		t.Fatal("preflight fallback must not demote the shard")
	}
}

// TestJSONBodyBuiltOnlyWhenSent: a request that travels as a binary
// frame never builds its JSON body; a request without a binary body, or
// one a JSON-only shard demotes with 415, builds it exactly once.
func TestJSONBodyBuiltOnlyWhenSent(t *testing.T) {
	ctx := context.Background()
	req := allocsvc.CoordRequest{Platform: "haswell", Workload: "stream", Budget: 180, Strategy: "coord"}
	bin, err := allocsvc.Coord.AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		binaryShard bool
		binBody     []byte
		wantBinary  bool
		wantBuilds  int
	}{
		{"binary frame", true, bin, true, 0},
		{"no binary body", true, nil, false, 1},
		{"demoted on 415", false, bin, false, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			svc := allocsvc.New(allocsvc.Config{Workers: 1, Binary: c.binaryShard})
			defer svc.Close(ctx)
			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()
			cl := newTestClient(t, []string{srv.URL}, nil, func(cfg *Config) { cfg.Binary = true })
			builds := 0
			marshal := func() ([]byte, error) {
				builds++
				return json.Marshal(req)
			}
			_, meta, err := cl.do(ctx, allocsvc.Coord.Path, "k", marshal, c.binBody)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Binary != c.wantBinary || builds != c.wantBuilds {
				t.Fatalf("binary answer %v, JSON body built %d time(s); want %v and %d",
					meta.Binary, builds, c.wantBinary, c.wantBuilds)
			}
		})
	}
}

// TestConcurrentDemotionBeforeSend: another request's 415 can demote a
// shard while this request is choosing it. The request must still reach
// the shard with a body it can read — binary, then JSON after its own
// 415 — and never send an empty JSON body. The breaker's clock hook
// stands in for the concurrent request: it demotes the shard from
// inside the shard pick.
func TestConcurrentDemotionBeforeSend(t *testing.T) {
	ctx := context.Background()
	svc := allocsvc.New(allocsvc.Config{Workers: 1}) // JSON only
	defer svc.Close(ctx)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	t0 := time.Unix(0, 0)
	now := t0
	var cl *Client
	cl = newTestClient(t, []string{srv.URL}, nil, func(cfg *Config) {
		cfg.Binary = true
		cfg.Now = func() time.Time {
			if now.After(t0) {
				cl.binaryOK[0].Store(false)
			}
			return now
		}
	})
	// Open the breaker at t0; past its cooldown the next pick reads the
	// clock, and so demotes the shard, inside allow.
	cl.breakers[0].failure()
	cl.breakers[0].failure()
	now = t0.Add(2 * time.Second)

	req := allocsvc.CoordRequest{Platform: "haswell", Workload: "stream", Budget: 180, Strategy: "coord"}
	bin, err := allocsvc.Coord.AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	marshal := func() ([]byte, error) {
		builds++
		return json.Marshal(req)
	}
	if _, _, err := cl.do(ctx, allocsvc.Coord.Path, "k", marshal, bin); err != nil {
		t.Fatalf("request to a shard demoted mid-pick: %v", err)
	}
	if builds != 1 {
		t.Fatalf("JSON body built %d time(s), want 1", builds)
	}
}

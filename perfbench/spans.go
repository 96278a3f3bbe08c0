package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/allocsvc"
	"repro/internal/decisiontable"
)

// Span layers, outermost first. Each request's spans nest in this
// order: the bench's call into allocclient, the client's HTTP round
// trips (one per attempt), the shard handler, and the table lookup.
const (
	layerCall      = "allocclient.call"
	layerRoundTrip = "http.roundtrip"
	layerHandler   = "allocsvc.handler"
	layerLookup    = "decisiontable.lookup"
)

var layerDepth = map[string]int{layerCall: 0, layerRoundTrip: 1, layerHandler: 2, layerLookup: 3}

// requestHeader carries the bench's request id from the client-side
// transport to the server-side middleware.
const requestHeader = "X-Pbc-Request"

// span is one timed interval of one request at one layer. Start and End
// are nanoseconds since the recorder's epoch.
type span struct {
	Req    uint64 `json:"req"`
	Layer  string `json:"layer"`
	Route  string `json:"route,omitempty"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the request's span list, -1 for the root
	Hit    bool   `json:"hit,omitempty"`
	// key identifies a lookup by request content until it is matched
	// to a request id (the Tables hook carries no context).
	key lookupKey
}

// lookupKey is a table request's content. Budgets are drawn from a
// continuous range, so in-flight requests never share one.
type lookupKey struct {
	route                        string
	platform, workload, strategy string
	budget                       float64
}

// recorder keeps spans in memory while tracing is on.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// keys maps a lookup's content key to the request id that sent it.
	keys map[lookupKey]uint64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), keys: map[lookupKey]uint64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// expect registers the content key of a request about to be sent, so
// the lookup it causes can be attributed to it.
func (r *recorder) expect(key lookupKey, id uint64) {
	r.mu.Lock()
	r.keys[key] = id
	r.mu.Unlock()
}

type reqIDKey struct{}

func withReqID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

func reqID(ctx context.Context) (uint64, bool) {
	id, ok := ctx.Value(reqIDKey{}).(uint64)
	return id, ok
}

// tracingTransport wraps the client's transport: it stamps the request
// id header and records one round-trip span per attempt.
type tracingTransport struct {
	rec   *recorder
	base  http.RoundTripper
	shard map[string]int // host → shard index
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := reqID(req.Context())
	if !ok || !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	req.Header.Set(requestHeader, strconv.FormatUint(id, 10))
	start := t.rec.now()
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		// The response body is read by allocclient after RoundTrip
		// returns; wrap it so the span ends when the body is drained.
		resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
			t.rec.add(span{Req: id, Layer: layerRoundTrip, Route: req.URL.Path,
				Shard: t.shard[req.URL.Host], Start: start, End: t.rec.now()})
		}}
		return resp, nil
	}
	t.rec.add(span{Req: id, Layer: layerRoundTrip, Route: req.URL.Path,
		Shard: t.shard[req.URL.Host], Start: start, End: t.rec.now()})
	return resp, err
}

// spanBody runs done once, when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// tracingHandler wraps one shard's allocsvc handler and records a
// handler span for every request that carries the id header.
func tracingHandler(rec *recorder, shard int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(requestHeader)
		if hdr == "" || !rec.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := rec.now()
		h.ServeHTTP(w, r)
		end := rec.now()
		id, err := strconv.ParseUint(hdr, 10, 64)
		if err != nil {
			return
		}
		rec.add(span{Req: id, Layer: layerHandler, Route: r.URL.Path, Shard: shard, Start: start, End: end})
	})
}

// timedTables implements allocsvc.Tables over a decision-table set,
// recording a lookup span per call while tracing is on.
type timedTables struct {
	rec   *recorder
	set   *decisiontable.Set
	shard int
}

func coordKey(req *allocsvc.CoordRequest) lookupKey {
	return lookupKey{allocsvc.RouteCoord, req.Platform, req.Workload, req.Strategy, req.Budget}
}

func planKey(req *allocsvc.PlanRequest) lookupKey {
	return lookupKey{route: allocsvc.RoutePlan, platform: req.Platform, workload: req.Workload, budget: req.Budget}
}

func (t *timedTables) Coord(req *allocsvc.CoordRequest, out *allocsvc.CoordResponse) bool {
	if !t.rec.on.Load() {
		return t.set.Coord(req, out)
	}
	start := t.rec.now()
	hit := t.set.Coord(req, out)
	end := t.rec.now()
	t.rec.add(span{Layer: layerLookup, Route: allocsvc.RouteCoord, Shard: t.shard,
		Start: start, End: end, Hit: hit, key: coordKey(req)})
	return hit
}

func (t *timedTables) Plan(req *allocsvc.PlanRequest, out *allocsvc.PlanResponse) bool {
	if !t.rec.on.Load() {
		return t.set.Plan(req, out)
	}
	start := t.rec.now()
	hit := t.set.Plan(req, out)
	end := t.rec.now()
	t.rec.add(span{Layer: layerLookup, Route: allocsvc.RoutePlan, Shard: t.shard,
		Start: start, End: end, Hit: hit, key: planKey(req)})
	return hit
}

// traced is one request's spans, linked into a tree.
type traced struct {
	id    uint64
	spans []span
}

// group attributes lookup spans to their requests, splits the spans by
// request id and links each span to its parent: the latest-starting
// span one layer up that started no later than it.
func (r *recorder) group() []traced {
	r.mu.Lock()
	defer r.mu.Unlock()
	byID := map[uint64][]span{}
	for _, s := range r.spans {
		if s.key.route != "" {
			id, ok := r.keys[s.key]
			if !ok {
				continue
			}
			s.Req = id
		}
		byID[s.Req] = append(byID[s.Req], s)
	}
	out := make([]traced, 0, len(byID))
	for id, ss := range byID {
		sort.SliceStable(ss, func(i, j int) bool {
			di, dj := layerDepth[ss[i].Layer], layerDepth[ss[j].Layer]
			if di != dj {
				return di < dj
			}
			return ss[i].Start < ss[j].Start
		})
		for i := range ss {
			ss[i].Parent = -1
			want := layerDepth[ss[i].Layer] - 1
			for j := range ss {
				if layerDepth[ss[j].Layer] == want && ss[j].Start <= ss[i].Start {
					if ss[i].Parent < 0 || ss[j].Start >= ss[ss[i].Parent].Start {
						ss[i].Parent = j
					}
				}
			}
		}
		out = append(out, traced{id: id, spans: ss})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Overlapping children are counted once; children reaching outside the
// parent are clipped to it.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered := int64(0)
		curA, curB := int64(0), int64(-1)
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// writeSpans writes every grouped span as one JSON line, so a request's
// spans can be read back by their shared id.
func writeSpans(path string, reqs []traced) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range reqs {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

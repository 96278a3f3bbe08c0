package allocsvc

import (
	"context"
	"encoding/binary"
	"math"
	"net/http"
	"strings"
	"sync"

	"repro/internal/wire"
)

// Route declares one API route once. The JSON handler, the binary
// handler and its scratch pool, ServeBinary's tag dispatch, the table
// lookup, the coalescing key and allocclient's call are all derived
// from it. The fields are the route's policy: a nil field means the
// route does not support that feature. The exported fields are the
// part of the policy the client shares.
type Route[Req, Resp any] struct {
	// Path is the URL path the route is mounted on.
	Path string
	// Normalize fills request defaults before anything else reads the
	// request (coalescing key, table, ring key, local fallback).
	Normalize func(*Req)
	// ShardKey is the client's consistent-hash ring key; quantize
	// buckets a budget so nearby budgets share a shard's warm caches.
	ShardKey func(req *Req, quantize func(watts float64) string) string
	// Local computes the answer in-process when every shard is
	// unavailable (the client's degraded mode). A local answer is
	// content-identical to a served one.
	Local func(Req) (Resp, error)
	// NoLocalFallback makes total shard loss a typed refusal
	// (allocclient.ErrNoLocalFallback) instead of a plain outage.
	NoLocalFallback bool
	// AppendRequest and DecodeResponse are the client half of the
	// binary codec; nil on JSON-only routes.
	AppendRequest  func(dst []byte, req *Req) ([]byte, error)
	DecodeResponse func(frame []byte, out *Resp) error

	// tag is the binary request frame's shape tag; 0 on JSON-only
	// routes, which answer binary requests with 415.
	tag byte
	// decodeRequest and appendResponse are the server half of the
	// binary codec.
	decodeRequest  func(frame []byte, out *Req) error
	appendResponse func(dst []byte, resp *Resp) ([]byte, error)
	// timeout reads the request's own deadline in milliseconds (0: the
	// service default).
	timeout func(*Req) int
	// key writes the request content the answer depends on.
	key func(*keyWriter, *Req)
	// compute is the exact computation.
	compute func(Req) (Resp, error)
	// table is the decision-table lookup, a method expression on
	// Tables.
	table func(Tables, *Req, *Resp) bool
	// blank, when set, is the state a pooled response starts each table
	// lookup from; it gives pointer fields storage the scratch keeps,
	// so a hit allocates nothing even after one that cleared them.
	// Without it the response is reused as the last lookup left it.
	blank func() Resp
	// clone deep-copies a decoded request whose slices alias the
	// pooled scratch, so the computation may outlive it.
	clone func(Req) Req

	scratch sync.Pool // *scratch[Req, Resp]
}

// Coord serves the COORD CPU/GPU split for one budget.
var Coord = &Route[CoordRequest, CoordResponse]{
	Path:      RouteCoord,
	Normalize: defaultStrategy,
	ShardKey: func(r *CoordRequest, q func(float64) string) string {
		return pairShardKey(r.Platform, r.Workload, r.Budget, q)
	},
	Local:          ComputeCoord,
	AppendRequest:  wire.AppendCoordRequest,
	DecodeResponse: wire.DecodeCoordResponse,
	tag:            wire.TCoordRequest,
	decodeRequest:  wire.DecodeCoordRequest,
	appendResponse: wire.AppendCoordResponse,
	timeout:        func(r *CoordRequest) int { return r.TimeoutMS },
	key: func(k *keyWriter, r *CoordRequest) {
		k.str(r.Platform, r.Workload, r.Strategy)
		k.f64(r.Budget)
	},
	compute: ComputeCoord,
	table:   Tables.Coord,
	// A too-small answer clears Alloc; the next hit refills the kept one.
	blank: func() CoordResponse { return CoordResponse{Alloc: new(AllocJSON)} },
}

// Plan serves the phase-aware dyncoord plan.
var Plan = &Route[PlanRequest, PlanResponse]{
	Path: RoutePlan,
	ShardKey: func(r *PlanRequest, q func(float64) string) string {
		return pairShardKey(r.Platform, r.Workload, r.Budget, q)
	},
	Local:          ComputePlan,
	AppendRequest:  wire.AppendPlanRequest,
	DecodeResponse: wire.DecodePlanResponse,
	tag:            wire.TPlanRequest,
	decodeRequest:  wire.DecodePlanRequest,
	appendResponse: wire.AppendPlanResponse,
	timeout:        func(r *PlanRequest) int { return r.TimeoutMS },
	key: func(k *keyWriter, r *PlanRequest) {
		k.str(r.Platform, r.Workload)
		k.f64(r.Budget)
	},
	compute: ComputePlan,
	table:   Tables.Plan,
}

// Schedule serves one cluster scheduling round. It has no local
// fallback: allocclient reports total shard loss as ErrUnavailable.
var Schedule = &Route[ScheduleRequest, ScheduleResponse]{
	Path: RouteSchedule,
	// The ring key is the cluster (budget and nodes), so rounds against
	// one cluster land on one shard, whose evalpool memo holds the
	// profiles of the cluster's (platform, workload) pairs.
	ShardKey: func(r *ScheduleRequest, q func(float64) string) string {
		var b strings.Builder
		b.WriteString(q(r.Budget))
		for _, n := range r.Nodes {
			b.WriteString("|" + n.ID + "=" + n.Platform)
		}
		return b.String()
	},
	AppendRequest:  wire.AppendScheduleRequest,
	DecodeResponse: wire.DecodeScheduleResponse,
	tag:            wire.TScheduleRequest,
	decodeRequest:  wire.DecodeScheduleRequest,
	appendResponse: wire.AppendScheduleResponse,
	timeout:        func(r *ScheduleRequest) int { return r.TimeoutMS },
	// The full round content: the cluster (budget and nodes), then the
	// job queue in order (the scheduler is order-sensitive).
	key: func(k *keyWriter, r *ScheduleRequest) {
		k.f64(r.Budget)
		k.int(len(r.Nodes))
		for _, n := range r.Nodes {
			k.str(n.ID, n.Platform)
		}
		k.int(len(r.Jobs))
		for _, j := range r.Jobs {
			k.str(j.ID, j.Workload)
		}
	},
	compute: computeSchedule,
	clone: func(r ScheduleRequest) ScheduleRequest {
		r.Nodes = append([]NodeJSON(nil), r.Nodes...)
		r.Jobs = append([]JobJSON(nil), r.Jobs...)
		return r
	},
}

// Tree serves one hierarchical budget division. It refuses total
// shard loss with a typed error: the solve needs the shard's curve
// profiles, so a local answer could diverge from the fleet's.
var Tree = &Route[TreeRequest, TreeResponse]{
	Path: RouteTree,
	// The ring key is the topology with the root budget quantized, so
	// repeated solves under a moving budget hit the shard holding the
	// tree's warm curve profiles.
	ShardKey: func(r *TreeRequest, q func(float64) string) string {
		var b strings.Builder
		b.WriteString(q(r.Budget))
		for _, rack := range r.Racks {
			b.WriteString("|r:" + rack.ID)
			for _, n := range rack.Nodes {
				b.WriteString("|" + n.ID + "=" + n.Platform + "/" + n.Workload)
			}
		}
		return b.String()
	},
	NoLocalFallback: true,
	AppendRequest:   wire.AppendTreeRequest,
	DecodeResponse:  wire.DecodeTreeResponse,
	tag:             wire.TTreeRequest,
	decodeRequest:   wire.DecodeTreeRequest,
	appendResponse:  wire.AppendTreeResponse,
	timeout:         func(r *TreeRequest) int { return r.TimeoutMS },
	key: func(k *keyWriter, r *TreeRequest) {
		k.f64(r.Budget)
		k.int(len(r.Racks))
		for _, rack := range r.Racks {
			k.str(rack.ID)
			k.f64(rack.CapWatts)
			k.int(len(rack.Nodes))
			for _, n := range rack.Nodes {
				k.str(n.ID, n.Platform, n.Workload)
				k.int(n.Priority)
			}
		}
	},
	compute: computeTree,
	clone: func(r TreeRequest) TreeRequest {
		r.Racks = append([]TreeRackJSON(nil), r.Racks...)
		for i := range r.Racks {
			r.Racks[i].Nodes = append([]TreeNodeJSON(nil), r.Racks[i].Nodes...)
		}
		return r
	},
}

// Recoord serves one online re-coordination run. It is JSON-only: the
// response carries a variable-length phase timeline, not a hot-path
// shape.
var Recoord = &Route[RecoordRequest, RecoordResponse]{
	Path: RouteRecoord,
	// Phase-spec requests carry the workload in the spec; both go into
	// the ring key so a custom mix pins to one shard too.
	ShardKey: func(r *RecoordRequest, q func(float64) string) string {
		return pairShardKey(r.Platform, r.Workload+"#"+r.PhaseSpec, r.Budget, q)
	},
	Local:   ComputeRecoord,
	timeout: func(r *RecoordRequest) int { return r.TimeoutMS },
	key: func(k *keyWriter, r *RecoordRequest) {
		k.str(r.Platform, r.Workload, r.PhaseSpec)
		k.f64(r.Budget)
		k.int(r.Rounds)
	},
	compute: ComputeRecoord,
}

// routes lists every route: Register mounts them, ServeBinary
// dispatches over them.
var routes = []endpoint{Coord, Plan, Schedule, Tree, Recoord}

// Paths returns the served route paths in declaration order.
func Paths() []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.path()
	}
	return out
}

// endpoint is the type-erased view of a Route.
type endpoint interface {
	path() string
	// frameTag is the binary request tag the route decodes (0: none).
	frameTag() byte
	serveHTTP(s *Service, w http.ResponseWriter, r *http.Request)
	serveFrame(s *Service, ctx context.Context, frame, dst []byte) (code, retryAfter int, out []byte)
}

func (rt *Route[Req, Resp]) path() string   { return rt.Path }
func (rt *Route[Req, Resp]) frameTag() byte { return rt.tag }

// defaultStrategy is coord's request default: the COORD heuristic.
func defaultStrategy(r *CoordRequest) {
	if r.Strategy == "" {
		r.Strategy = "coord"
	}
}

// pairShardKey is the ring key of the per-pair routes.
func pairShardKey(platform, wl string, budget float64, quantize func(float64) string) string {
	return strings.Join([]string{platform, wl, quantize(budget)}, "|")
}

// serveHTTP is the route's handler for both encodings.
func (rt *Route[Req, Resp]) serveHTTP(s *Service, w http.ResponseWriter, r *http.Request) {
	start := s.now()
	if wire.IsContentType(r.Header.Get("Content-Type")) {
		s.serveBinaryHTTP(w, r, rt, start)
		return
	}
	if r.Method != http.MethodPost {
		s.reply(w, rt.Path, methodNotAllowed(jsonEncoding, r), start)
		return
	}
	var req Req
	if err := decode(w, r, &req); err != nil {
		s.reply(w, rt.Path, jsonEncoding.fail(err), start)
		return
	}
	if rt.Normalize != nil {
		rt.Normalize(&req)
	}
	var out Resp
	if rt.lookup(s, &req, &out) {
		s.reply(w, rt.Path, jsonEncoding.ok(renderJSON(out)), start)
		return
	}
	s.reply(w, rt.Path, rt.exact(r.Context(), s, jsonEncoding, req), start)
}

// scratch is a route's pooled decode target. Request and response are
// pooled together so a table hit allocates nothing once the pool is
// warm: the decoder interns catalog strings, the table fills the
// pooled response in place, and the encoder appends into the caller's
// buffer.
type scratch[Req, Resp any] struct {
	req         Req
	resp, blank Resp
}

// serveFrame serves one binary request frame, appending the response
// frame to dst.
func (rt *Route[Req, Resp]) serveFrame(s *Service, ctx context.Context, frame, dst []byte) (int, int, []byte) {
	sc, _ := rt.scratch.Get().(*scratch[Req, Resp])
	if sc == nil {
		sc = new(scratch[Req, Resp])
		if rt.blank != nil {
			sc.blank = rt.blank()
		}
	}
	defer rt.scratch.Put(sc)
	if rt.blank != nil {
		sc.resp = sc.blank
	}
	if err := rt.decodeRequest(frame, &sc.req); err != nil {
		return http.StatusBadRequest, 0, wire.AppendError(dst, http.StatusBadRequest, err.Error())
	}
	if rt.Normalize != nil {
		rt.Normalize(&sc.req)
	}
	if rt.lookup(s, &sc.req, &sc.resp) {
		out, err := rt.appendResponse(dst, &sc.resp)
		if err != nil {
			// The encoder rewound dst; answer 413 so the client retries
			// in JSON.
			code := http.StatusRequestEntityTooLarge
			return code, 0, wire.AppendError(out, code, "binary response exceeds frame cap; retry as JSON")
		}
		return http.StatusOK, 0, out
	}
	req := sc.req
	if rt.clone != nil {
		req = rt.clone(req)
	}
	resp := rt.exact(ctx, s, binaryEncoding, req)
	return resp.code, resp.retryAfter, append(dst, resp.body...)
}

// lookup answers req from the decision tables when the route has one,
// tables are configured and the service is admitting, counting the
// outcome. Covered requests bypass the worker pool and coalescing.
func (rt *Route[Req, Resp]) lookup(s *Service, req *Req, out *Resp) bool {
	if rt.table == nil || s.cfg.Tables == nil || s.closed.Load() {
		return false
	}
	if rt.table(s.cfg.Tables, req, out) {
		s.stats.tableHits.Add(1)
		s.m.tableHit.Inc()
		return true
	}
	s.stats.tableMisses.Add(1)
	s.m.tableMiss.Inc()
	return false
}

// exact runs req through coalescing, admission and the worker pool,
// rendering the answer in enc.
func (rt *Route[Req, Resp]) exact(ctx context.Context, s *Service, enc encoding, req Req) *response {
	var k keyWriter
	k.str(rt.Path)
	k.str(string(enc))
	rt.key(&k, &req)
	return s.do(ctx, rt.Path, string(k.b), s.timeout(rt.timeout(&req)), enc, func() ([]byte, error) {
		v, err := rt.compute(req)
		if err != nil {
			return nil, err
		}
		if enc == binaryEncoding {
			// A result too large for a frame fails with
			// wire.ErrFrameTooLarge: 413, retry in JSON.
			return rt.appendResponse(nil, &v)
		}
		return renderJSON(v), nil
	})
}

// keyWriter builds coalescing and cache keys injectively: strings are
// length-prefixed and numbers fixed-width, so two different requests
// never write the same key, whatever bytes their free-form IDs hold.
type keyWriter struct{ b []byte }

func (k *keyWriter) str(ss ...string) {
	for _, s := range ss {
		k.b = binary.AppendUvarint(k.b, uint64(len(s)))
		k.b = append(k.b, s...)
	}
}

// f64 writes v's bits: two budgets share a key only when
// bit-identical, the evalpool memo's content-key discipline.
func (k *keyWriter) f64(v float64) { k.b = binary.LittleEndian.AppendUint64(k.b, math.Float64bits(v)) }

func (k *keyWriter) int(v int) { k.b = binary.LittleEndian.AppendUint64(k.b, uint64(v)) }

package allocsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/dyncoord"
	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/nvgov"
	"repro/internal/profile"
	"repro/internal/units"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Route paths served by Register.
const (
	RouteCoord    = "/v1/coord"
	RoutePlan     = "/v1/plan"
	RouteSchedule = "/v1/schedule"
	RouteTree     = "/v1/tree"
	RouteRecoord  = "/v1/recoord"
)

// maxBody bounds binary request bodies; it matches wire.MaxFrame so a
// body the reader admits is also a frame the decoder accepts. Larger
// binary requests are refused with 413 and must travel as JSON.
const maxBody = wire.MaxFrame

// maxJSONBody bounds JSON request bodies. Unlike the binary frame cap
// this is generous: a /v1/schedule round naming tens of thousands of
// nodes and jobs is a legitimate request, and JSON is the designated
// fallback encoding when a round outgrows the binary frame format.
const maxJSONBody = 8 << 20

// now reads the service clock (Config.Now, default time.Now).
func (s *Service) now() time.Time { return s.cfg.Now() }

// since is time.Since against the service clock.
func (s *Service) since(start time.Time) time.Duration { return s.cfg.Now().Sub(start) }

// Register mounts the service's routes on mux.
func (s *Service) Register(mux *http.ServeMux) {
	for _, rt := range routes {
		mux.HandleFunc(rt.path(), func(w http.ResponseWriter, r *http.Request) { rt.serveHTTP(s, w, r) })
	}
}

// Handler returns a mux with only the service routes, for tests and
// embedding.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// The request/response shapes live in internal/wire, shared between
// this package's JSON surface and the binary codec; the aliases keep
// allocsvc's exported API unchanged.
type (
	// AllocJSON is an allocation split on the wire.
	AllocJSON = wire.AllocJSON
	// CoordRequest is the body of POST /v1/coord.
	CoordRequest = wire.CoordRequest
	// CoordResponse is the decision for one (platform, workload, budget).
	CoordResponse = wire.CoordResponse
	// PlanRequest is the body of POST /v1/plan.
	PlanRequest = wire.PlanRequest
	// PlanStepJSON is one phase of a plan.
	PlanStepJSON = wire.PlanStepJSON
	// PlanResponse is a dyncoord plan on the wire.
	PlanResponse = wire.PlanResponse
	// NodeJSON names one cluster node for /v1/schedule.
	NodeJSON = wire.NodeJSON
	// JobJSON names one queued job for /v1/schedule.
	JobJSON = wire.JobJSON
	// ScheduleRequest is the body of POST /v1/schedule.
	ScheduleRequest = wire.ScheduleRequest
	// PlacementJSON is one admitted job of a round.
	PlacementJSON = wire.PlacementJSON
	// ScheduleResponse is a scheduling round's outcome on the wire.
	ScheduleResponse = wire.ScheduleResponse
	// TreeNodeJSON names one leaf of a budget tree for /v1/tree.
	TreeNodeJSON = wire.TreeNodeJSON
	// TreeRackJSON is one rack of a budget tree.
	TreeRackJSON = wire.TreeRackJSON
	// TreeRequest is the body of POST /v1/tree.
	TreeRequest = wire.TreeRequest
	// TreeGrantJSON is one kept leaf's share of a solved tree.
	TreeGrantJSON = wire.TreeGrantJSON
	// TreeRackGrantJSON aggregates one rack's share.
	TreeRackGrantJSON = wire.TreeRackGrantJSON
	// TreeShedJSON is one leaf dropped by admission control.
	TreeShedJSON = wire.TreeShedJSON
	// TreeResponse is a solved budget tree on the wire.
	TreeResponse = wire.TreeResponse
	// RecoordRequest is the body of POST /v1/recoord.
	RecoordRequest = wire.RecoordRequest
	// RecoordVisitJSON is one phase interval of a recoord timeline.
	RecoordVisitJSON = wire.RecoordVisitJSON
	// RecoordResponse is one online re-coordination run on the wire.
	RecoordResponse = wire.RecoordResponse
)

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

// renderJSON marshals v with a trailing newline. Marshalling the
// response types cannot fail (no channels, no cycles); a failure is a
// programmer error surfaced as a 500 body.
func renderJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(errorJSON{Error: "internal: " + err.Error()})
	}
	return append(b, '\n')
}

// encoding is a response body format: JSON, or binary wire frames.
// It renders every outcome a route can answer: ok, error, 429, 503
// and 504.
type encoding string

const (
	jsonEncoding   encoding = "json"
	binaryEncoding encoding = "binary"
)

func (e encoding) ok(body []byte) *response {
	return &response{code: http.StatusOK, body: body, enc: e}
}

// errorResponse renders an error body: {"error": msg} in JSON, an
// error frame in binary.
func (e encoding) errorResponse(code int, msg string) *response {
	if e == binaryEncoding {
		return &response{code: code, body: wire.AppendError(nil, code, msg), enc: e}
	}
	return &response{code: code, body: renderJSON(errorJSON{Error: msg}), enc: e}
}

// fail renders a computation error with its mapped status.
func (e encoding) fail(err error) *response {
	return e.errorResponse(errorCode(err), err.Error())
}

func (e encoding) timeout(err error) *response {
	return e.errorResponse(http.StatusGatewayTimeout, "deadline exceeded: "+err.Error())
}

// errorCode maps a computation error to its HTTP status: 400 for
// validation failures, 413 for oversized payloads, 500 otherwise.
func errorCode(err error) int {
	var be *badRequestError
	var tl *tooLargeError
	switch {
	case errors.As(err, &be):
		return http.StatusBadRequest
	case errors.As(err, &tl), errors.Is(err, wire.ErrFrameTooLarge):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusInternalServerError
}

// badRequestError marks validation failures so errorCode maps them
// to 400 instead of 500. cause, when set, keeps the originating typed
// error reachable through errors.Is/As (e.g. nvgov.ErrCapOutOfRange).
type badRequestError struct {
	msg   string
	cause error
}

func (e *badRequestError) Error() string { return e.msg }

func (e *badRequestError) Unwrap() error { return e.cause }

func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// tooLargeError marks oversized request or response payloads so the
// handlers answer 413 (and the binary client knows to retry in JSON)
// instead of a generic 400/500.
type tooLargeError struct{ msg string }

func (e *tooLargeError) Error() string { return e.msg }

func tooLargef(format string, args ...any) error {
	return &tooLargeError{msg: fmt.Sprintf(format, args...)}
}

// decode reads and unmarshals a request body, strictly: unknown fields
// are rejected so typos ("budget" for "budget_watts") fail loudly
// instead of silently meaning zero watts, and so is anything but
// whitespace after the object. Oversized bodies surface as 413, not
// 400 — the request may be well-formed, just too big.
func decode(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if err == nil {
			err = errors.New("data after the JSON object")
		}
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return tooLargef("request body exceeds %d bytes", mbe.Limit)
	}
	return badRequestf("bad request body: %v", err)
}

// reply writes resp and accounts for the request that started at
// start.
func (s *Service) reply(w http.ResponseWriter, route string, resp *response, start time.Time) {
	ct := "application/json"
	if resp.enc == binaryEncoding {
		ct = wire.ContentType
	}
	w.Header().Set("Content-Type", ct)
	if resp.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(resp.retryAfter))
	}
	w.WriteHeader(resp.code)
	w.Write(resp.body)
	s.count(route, resp.code, s.since(start))
}

func methodNotAllowed(enc encoding, r *http.Request) *response {
	return enc.errorResponse(http.StatusMethodNotAllowed, "method "+r.Method+" not allowed; use POST")
}

// platformNames renders the catalog's platform names, optionally
// filtered by kind, for actionable error messages.
func platformNames(kind hw.Kind, any bool) string {
	var names []string
	for _, p := range hw.AllPlatforms() {
		if any || p.Kind == kind {
			names = append(names, p.Name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// resolvePair validates a (platform, workload) request pair: both must
// exist and their kinds must match.
func resolvePair(platform, wl string) (hw.Platform, workload.Workload, error) {
	p, err := hw.PlatformByName(platform)
	if err != nil {
		return hw.Platform{}, workload.Workload{}, badRequestf(
			"unknown platform %q (supported: %s)", platform, platformNames(0, true))
	}
	w, err := workload.ByName(wl)
	if err != nil {
		return hw.Platform{}, workload.Workload{}, badRequestf("unknown workload %q", wl)
	}
	if w.Kind != p.Kind {
		return hw.Platform{}, workload.Workload{}, badRequestf(
			"workload %q is a %s workload but platform %q is a %s platform",
			wl, w.Kind, platform, p.Kind)
	}
	return p, w, nil
}

func checkBudget(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return badRequestf("budget_watts must be a positive finite number, got %v", v)
	}
	return nil
}

// ComputeCoord computes one /v1/coord decision in-process: it is the
// exact computation the service runs behind POST /v1/coord, exported
// so allocclient's degraded mode can serve coordination answers
// locally when every shard is unreachable — a degraded answer is
// content-identical to a served one. It checks the budget, binds the
// pair and computes at the budget.
func ComputeCoord(req CoordRequest) (CoordResponse, error) {
	if err := checkBudget(req.Budget); err != nil {
		return CoordResponse{}, err
	}
	pair, err := BindCoord(req.Platform, req.Workload)
	if err != nil {
		return CoordResponse{}, err
	}
	return pair.Coord(req.Strategy, req.Budget)
}

// CoordPair is one (platform, workload) pair bound for /v1/coord
// decisions: resolved against the catalog and profiled once, so
// computing it at many budgets (a decision-table build) pays for the
// name lookups, the fingerprint and the profile memo lookup once. It
// is read-only after BindCoord and safe for concurrent use.
type CoordPair struct {
	p  hw.Platform
	wl workload.Workload
	// cpu or gpu is the pair's profile, by its kind; profErr is the
	// profiler's error, reported by Coord after the cap-floor check,
	// where ComputeCoord has always reported it.
	cpu     profile.CPUProfile
	gpu     profile.GPUProfile
	profErr error
}

// BindCoord resolves a (platform, workload) pair and profiles it. It
// fails only on an unknown name or a kind mismatch, with the service's
// 400 errors. The pair is returned by value, so a request that binds
// and computes once allocates nothing for it.
func BindCoord(platform, wl string) (CoordPair, error) {
	p, w, err := resolvePair(platform, wl)
	if err != nil {
		return CoordPair{}, err
	}
	pair := CoordPair{p: p, wl: w}
	switch p.Kind {
	case hw.KindCPU:
		pair.cpu, pair.profErr = profile.ProfileCPU(p, w)
	case hw.KindGPU:
		pair.gpu, pair.profErr = profile.ProfileGPU(p, w)
	}
	return pair, nil
}

// Coord computes the pair's /v1/coord decision under strategy (empty
// means "coord") at budget: byte for byte what ComputeCoord answers for
// the same request, errors included.
func (pair *CoordPair) Coord(strategy string, budget float64) (CoordResponse, error) {
	if strategy == "" {
		strategy = "coord"
	}
	if err := checkBudget(budget); err != nil {
		return CoordResponse{}, err
	}
	p, wl := &pair.p, &pair.wl
	b := units.Power(budget)
	if p.Kind == hw.KindGPU && b < p.GPU.MinCap {
		// No settable power cap fits under this budget: the board floor
		// exceeds it. Surface the card's typed rejection instead of
		// silently evaluating at a clamped cap the budget cannot fund
		// (reachable on H100-class cards, whose floor is 200 W).
		capErr := nvgov.CheckCap(p.GPU, b)
		return CoordResponse{}, &badRequestError{
			msg: fmt.Sprintf("budget %v is below the card's settable cap floor: %v",
				b, capErr),
			cause: capErr,
		}
	}
	if pair.profErr != nil {
		return CoordResponse{}, pair.profErr
	}
	resp := CoordResponse{
		Platform: p.Name, Workload: wl.Name, Kind: p.Kind.String(),
		Strategy: strategy, Budget: budget,
	}

	var d coord.Decision
	var evalReq evalpool.Request
	switch p.Kind {
	case hw.KindCPU:
		st, ok := cpuStrategy(strategy)
		if !ok {
			return CoordResponse{}, badRequestf("unknown CPU strategy %q (supported: %s)",
				strategy, strategyNames(hw.KindCPU))
		}
		d = st(pair.cpu, b)
		evalReq = evalpool.Request{Op: evalpool.OpCPU, Proc: d.Alloc.Proc, Mem: d.Alloc.Mem}
	case hw.KindGPU:
		st, ok := gpuStrategy(strategy)
		if !ok {
			return CoordResponse{}, badRequestf("unknown GPU strategy %q (supported: %s)",
				strategy, strategyNames(hw.KindGPU))
		}
		d = st(pair.gpu, b)
		// The card cannot be capped below its floor (same rule the
		// cluster scheduler applies when it simulates a placement).
		cap := d.Alloc.Total()
		if cap < p.GPU.MinCap {
			cap = p.GPU.MinCap
		}
		evalReq = evalpool.Request{Op: evalpool.OpGPUMemPower, Proc: cap, Mem: d.Alloc.Mem}
	}

	resp.Status = d.Status.String()
	if d.Status == coord.StatusTooSmall {
		return resp, nil
	}
	resp.Alloc = &AllocJSON{ProcWatts: d.Alloc.Proc.Watts(), MemWatts: d.Alloc.Mem.Watts()}
	resp.SurplusWatts = d.Surplus.Watts()
	res, err := evalpool.Default().Evaluate(evalpool.Problem{Platform: pair.p, Workload: pair.wl}, evalReq)
	if err != nil {
		return CoordResponse{}, err
	}
	resp.ExpectedPerf = res.Perf
	resp.PerfUnit = wl.PerfUnit
	resp.ExpectedPower = res.TotalPower.Watts()
	return resp, nil
}

func cpuStrategy(name string) (func(profile.CPUProfile, units.Power) coord.Decision, bool) {
	for _, st := range coord.CPUStrategies() {
		if st.Name == name {
			return st.Decide, true
		}
	}
	return nil, false
}

func gpuStrategy(name string) (func(profile.GPUProfile, units.Power) coord.Decision, bool) {
	for _, st := range coord.GPUStrategies() {
		if st.Name == name {
			return st.Decide, true
		}
	}
	return nil, false
}

func strategyNames(kind hw.Kind) string {
	var names []string
	if kind == hw.KindCPU {
		for _, st := range coord.CPUStrategies() {
			names = append(names, st.Name)
		}
	} else {
		for _, st := range coord.GPUStrategies() {
			names = append(names, st.Name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ComputePlan computes one /v1/plan decision in-process — the exact
// computation behind POST /v1/plan, exported for allocclient's
// degraded mode. Like ComputeCoord it checks the budget, binds the
// pair and computes at the budget.
func ComputePlan(req PlanRequest) (PlanResponse, error) {
	if err := checkBudget(req.Budget); err != nil {
		return PlanResponse{}, err
	}
	pair, err := BindPlan(req.Platform, req.Workload)
	if err != nil {
		return PlanResponse{}, err
	}
	return pair.Plan(req.Budget)
}

// PlanPair is one CPU (platform, workload) pair bound for /v1/plan
// decisions: resolved against the catalog once, with the phase and
// whole-workload profiles dyncoord plans from. It is read-only after
// BindPlan and safe for concurrent use.
type PlanPair struct {
	p      hw.Platform
	wl     workload.Workload
	phases []dyncoord.PhaseProfile
	static *profile.CPUProfile
}

// BindPlan resolves a (platform, workload) pair, rejects GPU platforms
// with the service's actionable 400, and profiles every phase (a phase
// whose profiling fails is marked missing, as PlanCPUOrDegrade does).
// Like BindCoord it returns the pair by value.
func BindPlan(platform, wl string) (PlanPair, error) {
	p, w, err := resolvePair(platform, wl)
	if err != nil {
		return PlanPair{}, err
	}
	if p.Kind != hw.KindCPU {
		return PlanPair{}, badRequestf(
			"plan supports CPU platforms only; %q is a GPU platform (supported: %s)",
			p.Name, platformNames(hw.KindCPU, false))
	}
	phases, static := dyncoord.Profiles(p, w)
	return PlanPair{p: p, wl: w, phases: phases, static: static}, nil
}

// Plan computes the pair's /v1/plan decision at budget: byte for byte
// what ComputePlan answers for the same request, errors included.
func (pair *PlanPair) Plan(budget float64) (PlanResponse, error) {
	if err := checkBudget(budget); err != nil {
		return PlanResponse{}, err
	}
	plan, err := dyncoord.PlanCPUDegraded(pair.p, pair.wl, units.Power(budget), pair.phases, pair.static)
	if err != nil {
		return PlanResponse{}, err
	}
	resp := PlanResponse{
		Platform: pair.p.Name, Workload: pair.wl.Name, Budget: budget,
		Rejected: plan.Rejected(),
	}
	for _, st := range plan.Steps {
		resp.Steps = append(resp.Steps, PlanStepJSON{
			Phase:  st.Phase,
			Weight: st.Weight,
			Alloc: AllocJSON{
				ProcWatts: st.Alloc.Proc.Watts(), MemWatts: st.Alloc.Mem.Watts(),
			},
			Status:   st.Status.String(),
			FellBack: st.FellBack,
		})
	}
	return resp, nil
}

// computeSchedule runs one /v1/schedule round on a scheduler built for
// the request's cluster.
func computeSchedule(req ScheduleRequest) (ScheduleResponse, error) {
	if err := checkBudget(req.Budget); err != nil {
		return ScheduleResponse{}, err
	}
	if len(req.Nodes) == 0 {
		return ScheduleResponse{}, badRequestf("at least one node is required")
	}
	if len(req.Jobs) == 0 {
		return ScheduleResponse{}, badRequestf("at least one job is required")
	}
	nodes := make([]cluster.Node, len(req.Nodes))
	for i, n := range req.Nodes {
		p, err := hw.PlatformByName(n.Platform)
		if err != nil {
			return ScheduleResponse{}, badRequestf("node %q: unknown platform %q (supported: %s)",
				n.ID, n.Platform, platformNames(0, true))
		}
		nodes[i] = cluster.Node{ID: n.ID, Platform: p}
	}
	sched, err := cluster.NewScheduler(units.Power(req.Budget), nodes)
	if err != nil {
		return ScheduleResponse{}, badRequestf("%v", err)
	}
	jobs := make([]cluster.Job, len(req.Jobs))
	for i, j := range req.Jobs {
		wl, err := workload.ByName(j.Workload)
		if err != nil {
			return ScheduleResponse{}, badRequestf("job %q: unknown workload %q", j.ID, j.Workload)
		}
		jobs[i] = cluster.Job{ID: j.ID, Workload: wl}
	}
	out, err := sched.Schedule(jobs)
	if err != nil {
		return ScheduleResponse{}, err
	}
	resp := ScheduleResponse{
		PoolLeft:   out.PoolLeft.Watts(),
		TotalPower: out.TotalExpectedPower.Watts(),
		Deferred:   out.Deferred,
		Placements: []PlacementJSON{},
	}
	for _, pl := range out.Placements {
		resp.Placements = append(resp.Placements, PlacementJSON{
			Job:    pl.JobID,
			Node:   pl.NodeID,
			Budget: pl.Budget.Watts(),
			Alloc: AllocJSON{
				ProcWatts: pl.Alloc.Proc.Watts(), MemWatts: pl.Alloc.Mem.Watts(),
			},
			ExpectedPerf:  pl.ExpectedPerf,
			ExpectedPower: pl.ExpectedPower.Watts(),
		})
	}
	return resp, nil
}

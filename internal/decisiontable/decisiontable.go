// Package decisiontable precomputes the allocation service's coord and
// plan decisions over a quantized budget grid, turning the serving path
// into an O(1) interpolating table lookup.
//
// The exact decision functions (coord.CPU / coord.GPU behind
// allocsvc.ComputeCoord, dyncoord.PlanCPUOrDegrade behind
// allocsvc.ComputePlan) are piecewise linear in the budget: every
// regime boundary is a known breakpoint of the profile (productive
// threshold, component maxima, gamma-balance kinks). A table for one
// (platform, workload) pair therefore splits the budget axis into
// segments whose boundaries are the union of those analytic
// breakpoints and a uniform grid, and stores per segment the sampled
// line for the primary component (proc for CPU, mem for GPU — the
// other component is the remainder, so allocations still sum to the
// budget exactly) plus lines for expected perf and power. Serving
// evaluates two fused multiply-adds and fills the caller's response
// struct in place: no profile run, no evalpool simulation, no heap
// allocation.
//
// The contract with the exact path is verified at build time and again
// by internal/invariant: on every probed budget — on and off the grid
// — the table's allocation matches the exact path within AllocEps, the
// status and surplus match exactly, and perf/power match within
// DefaultEps relative error. Segments that cannot meet the contract
// (e.g. a regime boundary that fell between floats) are subdivided; a
// segment still failing at maximum depth is marked exact-only and
// reports a miss, so the service falls back to the exact path rather
// than serve an out-of-contract answer.
//
// Outside the tabulated range the table is exact by construction:
// budgets at or above the saturation point serve a stored exact row
// with the surplus recomputed (bit-identical to the exact path), and
// budgets below the productive threshold serve the stored rejection
// row. Requests the tables cannot cover — unknown pairs, non-default
// strategies, invalid budgets, pairs whose profiles are degraded —
// report a miss and fall through unchanged.
//
// Tables build lazily on first miss or eagerly via Warm; each pair's
// slot builds under its own sync.Once, so a thundering herd builds each
// pair once. A pair whose build fails is cached negatively and never
// retried: degraded pairs must keep taking the exact path, which is
// exactly the degradation behaviour dyncoord implements.
package decisiontable

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/allocsvc"
	"repro/internal/coord"
	"repro/internal/hw"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Table resolution and tolerance.
const (
	// DefaultGridPoints is the number of uniform grid cells laid over
	// the tabulated budget range, in addition to the analytic
	// breakpoints.
	DefaultGridPoints = 48
	// DefaultEps is the relative error tolerance for interpolated perf
	// and power values.
	DefaultEps = 0.01
)

// AllocEps bounds the allowed divergence between a table-served
// allocation and the exact one, relative with a 1 W floor. Allocations
// are reconstructed from a sampled line through two exact points of a
// truly linear regime, so the only divergence is float rounding —
// orders of magnitude below this bound.
const AllocEps = 1e-6

// maxSplitDepth bounds recursive segment subdivision when validation
// probes fail; a segment still out of contract at this depth becomes
// exact-only (lookup miss).
const maxSplitDepth = 6

// Config is New's configuration. It has no fields: every table uses
// DefaultGridPoints and DefaultEps.
type Config struct{}

// Set holds the decision tables for every catalog (platform, workload)
// pair and implements allocsvc.Tables. Construct with New; safe for
// concurrent use. Lookups on built pairs are allocation-free.
type Set struct {
	// bindCoord/bindPlan bind one pair's exact decision path, which its
	// tables are built from and validated against: a build binds once
	// and samples every budget through the result. Production Sets bind
	// through allocsvc.BindCoord/BindPlan; tests inject fakes to
	// exercise fault paths.
	bindCoord func(platform, wl string) (coordPath, error)
	bindPlan  func(platform, wl string) (planPath, error)

	// coord/plan are seeded at construction with one slot per valid
	// catalog pair and never mutated afterwards, so lookups need no
	// lock. A name missing from the maps is not a catalog pair and can
	// never have a table.
	coord map[string]map[string]*slot[coordTable]
	plan  map[string]map[string]*slot[planTable]
}

// coordPath is one bound pair's exact coord decision, under the
// strategy the tables serve, at a budget; planPath its plan decision.
type (
	coordPath func(budget float64) (coordSample, error)
	planPath  func(budget float64) (wire.PlanResponse, error)
)

// coordSample is one exact coord decision as a build reads it: the
// wire response's values, so a sample allocates nothing and every
// sample a build holds at once is its own. hasAlloc says whether the
// response carries an allocation.
type coordSample struct {
	status               coord.Status
	hasAlloc             bool
	alloc                wire.AllocJSON
	surplus, perf, power float64
}

// bindExactCoord binds a pair's exact coord path (allocsvc.BindCoord)
// under the "coord" strategy, the one the tables serve. Each sample
// fills a response on the sampling goroutine's stack and reads it into
// a coordSample. The sample keeps no string of the response, its status
// is parsed back instead: a kept string would tie the sample to the
// response, and escape analysis would move the response's allocation
// to the heap.
func bindExactCoord(platform, wl string) (coordPath, error) {
	pair, err := allocsvc.BindCoord(platform, wl)
	if err != nil {
		return nil, err
	}
	return func(b float64) (coordSample, error) {
		var alloc wire.AllocJSON
		resp := wire.CoordResponse{Alloc: &alloc}
		if err := pair.Coord("coord", b, &resp); err != nil {
			return coordSample{}, err
		}
		s := coordSample{status: -1, hasAlloc: resp.Alloc != nil, alloc: alloc,
			surplus: resp.SurplusWatts, perf: resp.ExpectedPerf, power: resp.ExpectedPower}
		for _, st := range [...]coord.Status{coord.StatusOK, coord.StatusSurplus, coord.StatusTooSmall} {
			if resp.Status == st.String() {
				s.status = st
			}
		}
		return s, nil
	}, nil
}

// bindExactPlan binds a pair's exact plan path (allocsvc.BindPlan).
func bindExactPlan(platform, wl string) (planPath, error) {
	pair, err := allocsvc.BindPlan(platform, wl)
	if err != nil {
		return nil, err
	}
	return pair.Plan, nil
}

// slot is the build-once cell for one pair's table. table stays nil
// until built; built flips true when the build completed, whether it
// produced a table or a (permanent) negative result.
type slot[T any] struct {
	platform, workload string
	once               sync.Once
	built              atomic.Bool
	table              atomic.Pointer[T]
}

// ensure builds the pair's table exactly once (negative results
// included) and returns it, nil when the pair cannot be tabulated.
// Concurrent callers wait for the one build.
func (sl *slot[T]) ensure(build func(platform, wl string) *T) *T {
	sl.once.Do(func() {
		sl.table.Store(build(sl.platform, sl.workload))
		sl.built.Store(true)
	})
	return sl.table.Load()
}

// New returns an empty Set for the full hardware/workload catalog.
// Tables build lazily on first lookup; call Warm to build them all up
// front.
func New(Config) *Set {
	s := &Set{
		bindCoord: bindExactCoord,
		bindPlan:  bindExactPlan,
		coord:     map[string]map[string]*slot[coordTable]{},
		plan:      map[string]map[string]*slot[planTable]{},
	}
	for _, p := range hw.AllPlatforms() {
		cm := map[string]*slot[coordTable]{}
		var pm map[string]*slot[planTable]
		// Plan slots exist only for CPU platforms: the plan path itself
		// is CPU-only, and a GPU pair must take the exact path so it gets
		// the same actionable rejection — never a built-but-empty table
		// reported as a hit.
		if p.Kind == hw.KindCPU {
			pm = map[string]*slot[planTable]{}
		}
		for _, w := range workload.AllWorkloads() {
			if w.Kind != p.Kind {
				continue
			}
			cm[w.Name] = &slot[coordTable]{platform: p.Name, workload: w.Name}
			if pm != nil {
				pm[w.Name] = &slot[planTable]{platform: p.Name, workload: w.Name}
			}
		}
		s.coord[p.Name] = cm
		if pm != nil {
			s.plan[p.Name] = pm
		}
	}
	return s
}

// line is y = y0 + slope·(x − x0), anchored inside its segment so
// evaluation never subtracts two nearly equal large numbers.
type line struct {
	x0, y0, slope float64
}

func (l line) at(x float64) float64 { return l.y0 + l.slope*(x-l.x0) }

// lineThrough fits the line through (x1, y1) and (x2, y2).
func lineThrough(x1, y1, x2, y2 float64) line {
	return line{x0: x1, y0: y1, slope: (y2 - y1) / (x2 - x1)}
}

// coordSeg is one budget segment of a coord table.
type coordSeg struct {
	start, end float64
	// primary is the proc line (CPU) or mem line (GPU); the other
	// component is budget − primary.
	primary line
	perf    line
	power   line
	// exactOnly marks a segment that failed validation at maximum
	// subdivision depth: lookups inside it miss.
	exactOnly bool
}

// coordTable is the full decision table for one (platform, workload).
type coordTable struct {
	platform, workload, kind, perfUnit string

	// [lo, hi) is the segmented range: lo is the rejection threshold,
	// hi the saturation (surplus) point.
	lo, hi float64
	// strictLo: budgets equal to lo are also rejected (GPU semantics:
	// budget ≤ MemMin leaves nothing for the SMs). CPU accepts lo
	// itself (budget ≥ productive threshold).
	strictLo bool
	// errBelow: budgets below lo are rejected by the exact path with a
	// typed error (GPU cap floor above the memory floor, e.g. H100's
	// 200 W settable minimum), not with a too-small row. The table must
	// miss there so the service falls through and serves the same
	// actionable rejection.
	errBelow bool
	// memPrimary: segment lines model mem (GPU) instead of proc (CPU).
	memPrimary bool

	segs []coordSeg
	// cells is a uniform acceleration index over [lo, hi): cells[i] is
	// the first segment whose end exceeds the cell's start, so a lookup
	// is one division plus a short forward scan.
	cells    []int32
	invCellW float64

	// statuses as the exact path renders them.
	okStatus, surplusStatus, tooSmallStatus string

	// surplus* is the exact decision at hi: above saturation the
	// allocation, perf, and power pin there and only the surplus grows.
	surplusProc, surplusMem, surplusPerf, surplusPower float64
}

// fill writes a complete response. hasAlloc=false renders the
// rejection shape: no alloc, no perf, no power — exactly what the
// exact path returns for a too-small budget.
func (t *coordTable) fill(out *wire.CoordResponse, strategy string, b float64,
	status string, hasAlloc bool, proc, mem, surplus, perf, power float64) {
	out.Platform = t.platform
	out.Workload = t.workload
	out.Kind = t.kind
	out.Strategy = strategy
	out.Budget = b
	out.Status = status
	if !hasAlloc {
		out.Alloc = nil
		out.SurplusWatts = 0
		out.ExpectedPerf = 0
		out.PerfUnit = ""
		out.ExpectedPower = 0
		return
	}
	if out.Alloc == nil {
		out.Alloc = new(wire.AllocJSON)
	}
	out.Alloc.ProcWatts = proc
	out.Alloc.MemWatts = mem
	out.SurplusWatts = surplus
	out.ExpectedPerf = perf
	out.PerfUnit = t.perfUnit
	out.ExpectedPower = power
}

// find locates the segment containing b ∈ [lo, hi).
func (t *coordTable) find(b float64) *coordSeg {
	i := int((b - t.lo) * t.invCellW)
	if i < 0 {
		i = 0
	} else if i >= len(t.cells) {
		i = len(t.cells) - 1
	}
	j := int(t.cells[i])
	for j < len(t.segs)-1 && b >= t.segs[j].end {
		j++
	}
	// The cell index rounds up when (b−lo)·invCellW lands a hair above
	// an integer boundary, so cells[i] can name a segment starting just
	// past b — one ulp below a regime breakpoint would then interpolate
	// on the wrong regime's line. Walk back to the owning segment.
	for j > 0 && b < t.segs[j].start {
		j--
	}
	return &t.segs[j]
}

// serve answers one coord request from the table. It reports false for
// budgets inside an exact-only segment, and for budgets below an
// errBelow table's range, where the exact path rejects with a typed
// error the table cannot reproduce.
func (t *coordTable) serve(strategy string, b float64, out *wire.CoordResponse) bool {
	if t.errBelow && b < t.lo {
		// Checked before the saturation branch: on a degenerate pair
		// (saturation at or below the cap floor, hi <= lo) a budget can
		// satisfy b >= hi and still be unenforceable.
		return false
	}
	switch {
	case b >= t.hi:
		// Saturated: the exact path pins the allocation at the maximum
		// demand and reports the excess. b − hi is the same subtraction
		// the exact path performs, so the row is bit-identical.
		t.fill(out, strategy, b, t.surplusStatus, true,
			t.surplusProc, t.surplusMem, b-t.hi, t.surplusPerf, t.surplusPower)
		return true
	case b < t.lo || (t.strictLo && b == t.lo):
		t.fill(out, strategy, b, t.tooSmallStatus, false, 0, 0, 0, 0, 0)
		return true
	}
	seg := t.find(b)
	if seg.exactOnly {
		return false
	}
	y := seg.primary.at(b)
	var proc, mem float64
	if t.memPrimary {
		mem, proc = y, b-y
	} else {
		proc, mem = y, b-y
	}
	t.fill(out, strategy, b, t.okStatus, true, proc, mem, 0, seg.perf.at(b), seg.power.at(b))
	return true
}

// planStepMode says how one step's allocation varies with budget
// inside a segment.
type planStepMode uint8

const (
	// stepLinear: proc follows the line, mem is budget − proc (the step
	// allocation sums to the budget in every OK regime, phase-aware or
	// memory-first fallback).
	stepLinear planStepMode = iota
	// stepConst: the step pins at its maximum demand (surplus regime).
	stepConst
	// stepZero: the step is rejected (too-small); the alloc is zero.
	stepZero
)

// planStepSeg is one plan step's behaviour over one budget segment.
type planStepSeg struct {
	status   string
	fellBack bool
	mode     planStepMode
	// proc is the line for stepLinear; proc.y0/mem hold the constants
	// for stepConst.
	proc line
	mem  float64
}

// planSeg is one budget segment of a plan table.
type planSeg struct {
	start, end float64
	steps      []planStepSeg
	rejected   bool
	exactOnly  bool
}

// planRow is a fully determined plan (every step constant), stored for
// the regions outside the segmented range.
type planRow struct {
	steps    []planStepSeg // mode stepConst or stepZero only
	rejected bool
}

// planTable is the plan decision table for one CPU pair.
type planTable struct {
	platform, workload string
	phases             []string
	weights            []float64

	lo, hi   float64
	segs     []planSeg
	cells    []int32
	invCellW float64

	// below serves budgets under lo (every step rejected); top serves
	// budgets at or above hi (every step saturated). Either may be nil
	// when validation could not lock the row down, in which case those
	// budgets miss.
	below, top *planRow
}

func (t *planTable) find(b float64) *planSeg {
	i := int((b - t.lo) * t.invCellW)
	if i < 0 {
		i = 0
	} else if i >= len(t.cells) {
		i = len(t.cells) - 1
	}
	j := int(t.cells[i])
	for j < len(t.segs)-1 && b >= t.segs[j].end {
		j++
	}
	// Same rounding guard as coordTable.find: never serve b from a
	// segment that starts past it.
	for j > 0 && b < t.segs[j].start {
		j--
	}
	return &t.segs[j]
}

// emit appends the step allocations for budget b to out.Steps
// (reusing its capacity) and sets the header fields.
func (t *planTable) emit(b float64, steps []planStepSeg, rejected bool, out *wire.PlanResponse) {
	out.Platform = t.platform
	out.Workload = t.workload
	out.Budget = b
	out.Rejected = rejected
	dst := out.Steps[:0]
	for i := range steps {
		st := &steps[i]
		var proc, mem float64
		switch st.mode {
		case stepLinear:
			proc = st.proc.at(b)
			mem = b - proc
		case stepConst:
			proc, mem = st.proc.y0, st.mem
		}
		dst = append(dst, wire.PlanStepJSON{
			Phase:    t.phases[i],
			Weight:   t.weights[i],
			Alloc:    wire.AllocJSON{ProcWatts: proc, MemWatts: mem},
			Status:   st.status,
			FellBack: st.fellBack,
		})
	}
	out.Steps = dst
}

// serve answers one plan request from the table.
func (t *planTable) serve(b float64, out *wire.PlanResponse) bool {
	switch {
	case b >= t.hi:
		if t.top == nil {
			return false
		}
		t.emit(b, t.top.steps, t.top.rejected, out)
		return true
	case b < t.lo:
		if t.below == nil {
			return false
		}
		t.emit(b, t.below.steps, t.below.rejected, out)
		return true
	}
	seg := t.find(b)
	if seg.exactOnly {
		return false
	}
	t.emit(b, seg.steps, seg.rejected, out)
	return true
}

// validBudget mirrors the exact path's budget check: tables only
// answer budgets the exact path would accept.
func validBudget(b float64) bool {
	return b > 0 && !math.IsInf(b, 0) // NaN fails b > 0
}

// Coord answers one /v1/coord request from the tables, reporting
// whether it was covered. A false return means the exact path must
// serve it. The first miss on an unbuilt catalog pair kicks off an
// asynchronous build; until it completes the pair keeps missing, so
// table warm-up never blocks a request.
func (s *Set) Coord(req *wire.CoordRequest, out *wire.CoordResponse) bool {
	if req.Strategy != "coord" || !validBudget(req.Budget) {
		return false
	}
	m := s.coord[req.Platform]
	if m == nil {
		return false
	}
	sl := m[req.Workload]
	if sl == nil {
		return false
	}
	t := sl.table.Load()
	if t == nil {
		if !sl.built.Load() {
			go sl.ensure(s.buildCoordTable)
		}
		return false
	}
	return t.serve(req.Strategy, req.Budget, out)
}

// Plan is Coord's /v1/plan counterpart.
func (s *Set) Plan(req *wire.PlanRequest, out *wire.PlanResponse) bool {
	if !validBudget(req.Budget) {
		return false
	}
	m := s.plan[req.Platform]
	if m == nil {
		return false
	}
	sl := m[req.Workload]
	if sl == nil {
		return false
	}
	t := sl.table.Load()
	if t == nil {
		if !sl.built.Load() {
			go sl.ensure(s.buildPlanTable)
		}
		return false
	}
	return t.serve(req.Budget, out)
}

// WarmStats summarizes a Warm pass.
type WarmStats struct {
	// CoordTables/PlanTables count the pairs now serving from tables.
	CoordTables, PlanTables int
	// CoordSkipped/PlanSkipped count pairs that cannot be tabulated
	// (degraded profiles, non-linearizable segments): they permanently
	// take the exact path.
	CoordSkipped, PlanSkipped int
}

// Warm builds every catalog pair's tables synchronously, so a service
// started with -tables answers its first request from warm tables.
// Building samples the exact path, which also memoizes every pair's
// profile on the shared evalpool engine — the same warm-up the
// schedule route benefits from.
func (s *Set) Warm() WarmStats {
	var st WarmStats
	for _, m := range s.coord {
		for _, sl := range m {
			if sl.ensure(s.buildCoordTable) != nil {
				st.CoordTables++
			} else {
				st.CoordSkipped++
			}
		}
	}
	for _, m := range s.plan {
		for _, sl := range m {
			if sl.ensure(s.buildPlanTable) != nil {
				st.PlanTables++
			} else {
				st.PlanSkipped++
			}
		}
	}
	return st
}

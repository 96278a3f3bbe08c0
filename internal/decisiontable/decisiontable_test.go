package decisiontable

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/allocsvc"
	"repro/internal/coord"
	"repro/internal/hw"
	"repro/internal/nvgov"
	"repro/internal/profile"
	"repro/internal/wire"
	"repro/internal/workload"
)

// sweepBudgets returns a budget sweep that deliberately lands below
// the range, on segment boundaries, between grid points, and above
// saturation.
func sweepBudgets(lo, hi float64) []float64 {
	var bs []float64
	bs = append(bs, lo/3, lo/2, lo*0.999, lo, lo+1e-9)
	n := 97 // coprime with the grid so probes fall between grid points
	for i := 1; i < n; i++ {
		bs = append(bs, lo+(hi-lo)*float64(i)/float64(n))
	}
	bs = append(bs, hi-1e-9, hi, hi+1e-9, hi*1.25, hi*10)
	return bs
}

// checkCoordAgainstExact serves b from the set and, on a hit, compares
// against the exact path. Returns whether it hit.
func checkCoordAgainstExact(t *testing.T, s *Set, platform, wl string, b float64) bool {
	t.Helper()
	req := wire.CoordRequest{Platform: platform, Workload: wl, Budget: b, Strategy: "coord"}
	var got wire.CoordResponse
	if !s.Coord(&req, &got) {
		return false
	}
	exact, err := allocsvc.ComputeCoord(req)
	if err != nil {
		t.Fatalf("%s/%s b=%v: exact path errored (%v) but table served", platform, wl, b, err)
	}
	if got.Status != exact.Status {
		t.Fatalf("%s/%s b=%v: table status %q, exact %q", platform, wl, b, got.Status, exact.Status)
	}
	if got.Platform != exact.Platform || got.Workload != exact.Workload ||
		got.Kind != exact.Kind || got.Strategy != exact.Strategy || got.Budget != exact.Budget {
		t.Fatalf("%s/%s b=%v: header mismatch: table %+v exact %+v", platform, wl, b, got, exact)
	}
	if (got.Alloc == nil) != (exact.Alloc == nil) {
		t.Fatalf("%s/%s b=%v: alloc presence mismatch: table %+v exact %+v", platform, wl, b, got, exact)
	}
	if exact.Alloc == nil {
		return true
	}
	if !within(got.Alloc.ProcWatts, exact.Alloc.ProcWatts, AllocEps) ||
		!within(got.Alloc.MemWatts, exact.Alloc.MemWatts, AllocEps) {
		t.Fatalf("%s/%s b=%v: alloc gap: table (%v, %v) exact (%v, %v)", platform, wl, b,
			got.Alloc.ProcWatts, got.Alloc.MemWatts, exact.Alloc.ProcWatts, exact.Alloc.MemWatts)
	}
	if got.SurplusWatts != exact.SurplusWatts {
		t.Fatalf("%s/%s b=%v: surplus gap: table %v exact %v", platform, wl, b,
			got.SurplusWatts, exact.SurplusWatts)
	}
	if !within(got.ExpectedPerf, exact.ExpectedPerf, DefaultEps) ||
		!within(got.ExpectedPower, exact.ExpectedPower, DefaultEps) {
		t.Fatalf("%s/%s b=%v: perf/power out of eps: table (%v, %v) exact (%v, %v)",
			platform, wl, b, got.ExpectedPerf, got.ExpectedPower,
			exact.ExpectedPerf, exact.ExpectedPower)
	}
	if got.PerfUnit != exact.PerfUnit {
		t.Fatalf("%s/%s b=%v: perf unit %q vs %q", platform, wl, b, got.PerfUnit, exact.PerfUnit)
	}
	// The table path must keep the allocation summing to the budget in
	// the ok regime, same as the analytic algorithms.
	if got.Status == "ok" {
		if sum := got.Alloc.ProcWatts + got.Alloc.MemWatts; math.Abs(sum-b) > 1e-9*math.Max(1, b) {
			t.Fatalf("%s/%s b=%v: table alloc sums to %v, not the budget", platform, wl, b, sum)
		}
	}
	return true
}

func TestCoordTableMatchesExact(t *testing.T) {
	pairs := []struct{ platform, wl string }{
		{"ivybridge", "stream"},
		{"ivybridge", "dgemm"},
		{"haswell", "bt"},
		{"titanv", "sgemm"},
		{"titanxp", "sgemm"},
		{"h100", "llmserve"},
	}
	s := New(Config{})
	for _, pair := range pairs {
		sl := s.coord[pair.platform][pair.wl]
		if sl == nil {
			t.Fatalf("no slot for %s/%s", pair.platform, pair.wl)
		}
		tab := sl.ensure(s.buildCoordTable)
		if tab == nil {
			t.Fatalf("coord table for %s/%s did not build", pair.platform, pair.wl)
		}
		hits, total := 0, 0
		for _, b := range sweepBudgets(tab.lo, tab.hi) {
			total++
			if checkCoordAgainstExact(t, s, pair.platform, pair.wl, b) {
				hits++
			}
		}
		if frac := float64(hits) / float64(total); frac < 0.9 {
			t.Errorf("%s/%s: table hit rate %.2f below 0.9 (%d/%d)",
				pair.platform, pair.wl, frac, hits, total)
		}
	}
}

// TestCoordGridBoundaries serves budgets exactly on every segment
// boundary, where off-by-one segment selection would bite.
func TestCoordGridBoundaries(t *testing.T) {
	s := New(Config{})
	sl := s.coord["ivybridge"]["stream"]
	tab := sl.ensure(s.buildCoordTable)
	if tab == nil {
		t.Fatal("table did not build")
	}
	for _, seg := range tab.segs {
		checkCoordAgainstExact(t, s, "ivybridge", "stream", seg.start)
	}
	checkCoordAgainstExact(t, s, "ivybridge", "stream", tab.hi)
}

// TestRegressGPUCapFloorBudgetsMissTables is the satellite regression
// for the silent-clamp bug at the table layer: every GPU pair's cap
// floor (MinCap) sits above its memory floor, so budgets below the
// floor are rejected by the exact path with a typed error
// (nvgov.ErrCapOutOfRange). The table must MISS there — never serve a
// too-small row or, on a degenerate pair, a surplus row — so the
// service falls through and the client gets the same actionable
// rejection.
func TestRegressGPUCapFloorBudgetsMissTables(t *testing.T) {
	s := New(Config{})
	sl := s.coord["h100"]["llmserve"]
	tab := sl.ensure(s.buildCoordTable)
	if tab == nil {
		t.Fatal("h100/llmserve coord table did not build")
	}
	if !tab.errBelow {
		t.Fatal("h100/llmserve table is not marked errBelow (MinCap 200 W > MemMin 60 W)")
	}
	floor, err := hw.PlatformByName("h100")
	if err != nil {
		t.Fatal(err)
	}
	if tab.lo != floor.GPU.MinCap.Watts() {
		t.Fatalf("table lo = %v, want the cap floor %v", tab.lo, floor.GPU.MinCap.Watts())
	}
	for _, b := range []float64{tab.lo / 2, tab.lo * 0.999, math.Nextafter(tab.lo, math.Inf(-1))} {
		req := wire.CoordRequest{Platform: "h100", Workload: "llmserve", Budget: b, Strategy: "coord"}
		var got wire.CoordResponse
		if s.Coord(&req, &got) {
			t.Fatalf("b=%v below the cap floor: table served %+v, must miss", b, got)
		}
		if _, err := allocsvc.ComputeCoord(req); !errors.Is(err, nvgov.ErrCapOutOfRange) {
			t.Fatalf("b=%v: exact path error = %v, want nvgov.ErrCapOutOfRange", b, err)
		}
	}
	// The floor itself is enforceable: the table serves it and matches
	// the exact path.
	if !checkCoordAgainstExact(t, s, "h100", "llmserve", tab.lo) {
		t.Fatalf("b=%v (the cap floor): expected table hit", tab.lo)
	}
}

// TestDegenerateGPUPairAllSurplus: on titanv/gpustream the saturation
// point (TotMax 82.4 W) sits below the cap floor (100 W), so every
// enforceable budget is saturated. The table must still build (the
// pair profiles cleanly), serve every budget at or above the floor
// from the saturation row, and miss below it.
func TestDegenerateGPUPairAllSurplus(t *testing.T) {
	s := New(Config{})
	tab := s.coord["titanv"]["gpustream"].ensure(s.buildCoordTable)
	if tab == nil {
		t.Fatal("titanv/gpustream coord table did not build")
	}
	if !(tab.hi < tab.lo) || !tab.errBelow || len(tab.segs) != 0 {
		t.Fatalf("expected degenerate errBelow table (hi < lo, no segments); lo=%v hi=%v segs=%d",
			tab.lo, tab.hi, len(tab.segs))
	}
	for _, b := range []float64{tab.lo, tab.lo + 1e-9, tab.lo * 1.25, tab.lo * 10} {
		if !checkCoordAgainstExact(t, s, "titanv", "gpustream", b) {
			t.Fatalf("b=%v: expected table hit", b)
		}
		req := wire.CoordRequest{Platform: "titanv", Workload: "gpustream", Budget: b, Strategy: "coord"}
		var got wire.CoordResponse
		s.Coord(&req, &got)
		if got.Status != "surplus" {
			t.Fatalf("b=%v: want surplus, got %+v", b, got)
		}
	}
	// Below the floor: miss, even though b >= hi (the saturation branch
	// must not fire for unenforceable budgets).
	for _, b := range []float64{tab.hi, (tab.hi + tab.lo) / 2, math.Nextafter(tab.lo, math.Inf(-1))} {
		req := wire.CoordRequest{Platform: "titanv", Workload: "gpustream", Budget: b, Strategy: "coord"}
		var got wire.CoordResponse
		if s.Coord(&req, &got) {
			t.Fatalf("b=%v below the cap floor: table served %+v, must miss", b, got)
		}
		if _, err := allocsvc.ComputeCoord(req); !errors.Is(err, nvgov.ErrCapOutOfRange) {
			t.Fatalf("b=%v: exact path error = %v, want nvgov.ErrCapOutOfRange", b, err)
		}
	}
	bounds := s.CoordBoundaries("titanv", "gpustream")
	if len(bounds) != 2 || bounds[0] != tab.lo || bounds[1] != tab.hi {
		t.Fatalf("degenerate CoordBoundaries = %v, want [%v %v]", bounds, tab.lo, tab.hi)
	}
}

// TestRegressGPUPlanRequestsNeverHitTables is the satellite regression
// for the built-but-empty plan table: the plan path is CPU-only, so a
// GPU pair must have no plan slot at all — requests miss and the exact
// path returns its actionable rejection, identical with or without
// tables in front.
func TestRegressGPUPlanRequestsNeverHitTables(t *testing.T) {
	s := New(Config{})
	for _, platform := range []string{"titanv", "titanxp", "h100", "h200"} {
		if s.plan[platform] != nil {
			t.Fatalf("GPU platform %s has plan slots: %v", platform, s.plan[platform])
		}
		if _, planBuilt := s.Build(platform, "gpustream"); planBuilt {
			t.Fatalf("GPU pair %s/gpustream reports a built plan table", platform)
		}
		req := wire.PlanRequest{Platform: platform, Workload: "gpustream", Budget: 150}
		var out wire.PlanResponse
		if s.Plan(&req, &out) {
			t.Fatalf("GPU plan request on %s hit a table: %+v", platform, out)
		}
		if _, err := allocsvc.ComputePlan(req); err == nil {
			t.Fatalf("exact plan path accepted GPU platform %s", platform)
		}
	}
}

// breakpointPairs is the platform × workload matrix the breakpoint
// edge tests probe: every platform kind, memory-bound and compute-bound
// workloads on each.
var breakpointPairs = []struct{ platform, wl string }{
	{"ivybridge", "stream"},
	{"ivybridge", "dgemm"},
	{"ivybridge", "ep"},
	{"haswell", "stream"},
	{"haswell", "bt"},
	{"titanv", "gpustream"},
	{"titanv", "hpcg"},
	{"titanxp", "sgemm"},
	{"h100", "llmserve"},
	{"h100", "gpustream"},
}

// regimeBreakpoints returns the analytic regime boundaries for one
// pair, in watts — the budgets where the coordination algorithm changes
// formula and a mis-selected table segment would interpolate on the
// wrong regime's line.
func regimeBreakpoints(t *testing.T, platform, wl string) []float64 {
	t.Helper()
	p, err := hw.PlatformByName(platform)
	if err != nil {
		t.Fatalf("platform %s: %v", platform, err)
	}
	w, err := workload.ByName(wl)
	if err != nil {
		t.Fatalf("workload %s: %v", wl, err)
	}
	var breaks []float64
	switch p.Kind {
	case hw.KindCPU:
		prof, err := profile.ProfileCPU(p, w)
		if err != nil {
			t.Fatalf("%s/%s: profile: %v", platform, wl, err)
		}
		for _, b := range coord.CPUBreakpoints(prof) {
			breaks = append(breaks, b.Watts())
		}
	case hw.KindGPU:
		prof, err := profile.ProfileGPU(p, w)
		if err != nil {
			t.Fatalf("%s/%s: profile: %v", platform, wl, err)
		}
		for _, b := range coord.GPUBreakpoints(prof, coord.DefaultGamma) {
			breaks = append(breaks, b.Watts())
		}
	default:
		t.Fatalf("platform %s: unknown kind %v", platform, p.Kind)
	}
	return breaks
}

// TestBreakpointEdgesMatchExact probes every regime breakpoint, per
// platform × workload, at the breakpoint itself and one ulp to either
// side. A query one ulp below a breakpoint belongs to the regime on
// the left; serving it from the right regime's segment (the
// edge-straddling lookup bug) interpolates across the regime change
// and diverges from the exact path.
func TestBreakpointEdgesMatchExact(t *testing.T) {
	s := New(Config{})
	for _, pair := range breakpointPairs {
		sl := s.coord[pair.platform][pair.wl]
		if sl == nil {
			t.Fatalf("no slot for %s/%s", pair.platform, pair.wl)
		}
		if sl.ensure(s.buildCoordTable) == nil {
			t.Fatalf("coord table for %s/%s did not build", pair.platform, pair.wl)
		}
		for _, bp := range regimeBreakpoints(t, pair.platform, pair.wl) {
			for _, b := range []float64{
				math.Nextafter(bp, math.Inf(-1)),
				bp,
				math.Nextafter(bp, math.Inf(1)),
			} {
				checkCoordAgainstExact(t, s, pair.platform, pair.wl, b)
			}
		}
	}
}

// TestFindNeverStraddlesEdge is the white-box half of the breakpoint
// audit: the cell index int((b−lo)·invCellW) can round one cell high
// when b sits one ulp below a cell boundary, and the forward-only scan
// could then return a segment starting past b. find must always return
// the segment that contains b.
func TestFindNeverStraddlesEdge(t *testing.T) {
	s := New(Config{})
	for _, pair := range breakpointPairs {
		tab := s.coord[pair.platform][pair.wl].ensure(s.buildCoordTable)
		if tab == nil {
			t.Fatalf("coord table for %s/%s did not build", pair.platform, pair.wl)
		}
		probe := func(b float64) {
			if b < tab.lo || b >= tab.hi {
				return // serve() answers these before find runs
			}
			seg := tab.find(b)
			if b < seg.start || b >= seg.end {
				t.Errorf("%s/%s: find(%v) returned segment [%v, %v)",
					pair.platform, pair.wl, b, seg.start, seg.end)
			}
		}
		for _, seg := range tab.segs {
			probe(math.Nextafter(seg.start, math.Inf(-1)))
			probe(seg.start)
			probe(math.Nextafter(seg.start, math.Inf(1)))
			probe(math.Nextafter(seg.end, math.Inf(-1)))
		}
	}
	// Same audit for the plan tables' find.
	for _, pair := range []struct{ platform, wl string }{
		{"ivybridge", "bt"}, {"haswell", "stream"},
	} {
		tab := s.plan[pair.platform][pair.wl].ensure(s.buildPlanTable)
		if tab == nil {
			t.Fatalf("plan table for %s/%s did not build", pair.platform, pair.wl)
		}
		probe := func(b float64) {
			if b < tab.lo || b >= tab.hi {
				return
			}
			seg := tab.find(b)
			if b < seg.start || b >= seg.end {
				t.Errorf("%s/%s: plan find(%v) returned segment [%v, %v)",
					pair.platform, pair.wl, b, seg.start, seg.end)
			}
		}
		for _, seg := range tab.segs {
			probe(math.Nextafter(seg.start, math.Inf(-1)))
			probe(seg.start)
			probe(math.Nextafter(seg.start, math.Inf(1)))
			probe(math.Nextafter(seg.end, math.Inf(-1)))
		}
	}
}

// TestCoordStaleAllocReuse: a pooled response with a stale Alloc must
// be overwritten, and one with a nil Alloc populated.
func TestCoordStaleAllocReuse(t *testing.T) {
	s := New(Config{})
	sl := s.coord["ivybridge"]["stream"]
	tab := sl.ensure(s.buildCoordTable)
	if tab == nil {
		t.Fatal("table did not build")
	}
	mid := (tab.lo + tab.hi) / 2
	req := wire.CoordRequest{Platform: "ivybridge", Workload: "stream", Budget: mid, Strategy: "coord"}
	stale := wire.AllocJSON{ProcWatts: -1, MemWatts: -1}
	out := wire.CoordResponse{Alloc: &stale}
	if !s.Coord(&req, &out) {
		t.Fatal("expected hit")
	}
	if out.Alloc != &stale {
		t.Fatal("hit replaced the caller's Alloc instead of reusing it")
	}
	if stale.ProcWatts == -1 {
		t.Fatal("stale alloc not overwritten")
	}
	// Rejection must clear the alloc.
	req.Budget = tab.lo / 2
	if !s.Coord(&req, &out) {
		t.Fatal("expected rejection hit")
	}
	if out.Alloc != nil {
		t.Fatalf("rejection kept an alloc: %+v", out.Alloc)
	}
}

func TestPlanTableMatchesExact(t *testing.T) {
	pairs := []struct{ platform, wl string }{
		{"ivybridge", "bt"},
		{"haswell", "stream"},
	}
	s := New(Config{})
	for _, pair := range pairs {
		sl := s.plan[pair.platform][pair.wl]
		if sl == nil {
			t.Fatalf("no plan slot for %s/%s", pair.platform, pair.wl)
		}
		tab := sl.ensure(s.buildPlanTable)
		if tab == nil {
			t.Fatalf("plan table for %s/%s did not build", pair.platform, pair.wl)
		}
		hits, total := 0, 0
		for _, b := range sweepBudgets(tab.lo, tab.hi) {
			total++
			req := wire.PlanRequest{Platform: pair.platform, Workload: pair.wl, Budget: b}
			var got wire.PlanResponse
			if !s.Plan(&req, &got) {
				continue
			}
			hits++
			exact, err := allocsvc.ComputePlan(req)
			if err != nil {
				t.Fatalf("%s/%s b=%v: exact plan errored: %v", pair.platform, pair.wl, b, err)
			}
			if got.Rejected != exact.Rejected || len(got.Steps) != len(exact.Steps) ||
				got.Platform != exact.Platform || got.Workload != exact.Workload ||
				got.Budget != exact.Budget {
				t.Fatalf("%s/%s b=%v: plan header mismatch:\n table %+v\n exact %+v",
					pair.platform, pair.wl, b, got, exact)
			}
			for i := range exact.Steps {
				e, g := &exact.Steps[i], &got.Steps[i]
				if g.Phase != e.Phase || g.Weight != e.Weight ||
					g.Status != e.Status || g.FellBack != e.FellBack {
					t.Fatalf("%s/%s b=%v step %d: mismatch table %+v exact %+v",
						pair.platform, pair.wl, b, i, g, e)
				}
				if !within(g.Alloc.ProcWatts, e.Alloc.ProcWatts, AllocEps) ||
					!within(g.Alloc.MemWatts, e.Alloc.MemWatts, AllocEps) {
					t.Fatalf("%s/%s b=%v step %d: alloc gap table %+v exact %+v",
						pair.platform, pair.wl, b, i, g.Alloc, e.Alloc)
				}
			}
		}
		if frac := float64(hits) / float64(total); frac < 0.9 {
			t.Errorf("%s/%s: plan hit rate %.2f below 0.9 (%d/%d)",
				pair.platform, pair.wl, frac, hits, total)
		}
	}
}

// TestPlanStepsReuse: the lookup must reuse the caller's Steps backing
// array (the binary fast path pools the response).
func TestPlanStepsReuse(t *testing.T) {
	s := New(Config{})
	tab := s.plan["ivybridge"]["bt"].ensure(s.buildPlanTable)
	if tab == nil {
		t.Fatal("plan table did not build")
	}
	req := wire.PlanRequest{Platform: "ivybridge", Workload: "bt", Budget: (tab.lo + tab.hi) / 2}
	var out wire.PlanResponse
	if !s.Plan(&req, &out) {
		t.Fatal("expected hit")
	}
	first := &out.Steps[0]
	if !s.Plan(&req, &out) {
		t.Fatal("expected second hit")
	}
	if &out.Steps[0] != first {
		t.Fatal("second lookup reallocated Steps")
	}
}

// TestUncoveredRequestsMiss: strategies, budgets, and names the tables
// must not answer.
func TestUncoveredRequestsMiss(t *testing.T) {
	s := New(Config{})
	tab := s.coord["ivybridge"]["stream"].ensure(s.buildCoordTable)
	if tab == nil {
		t.Fatal("table did not build")
	}
	mid := (tab.lo + tab.hi) / 2
	var out wire.CoordResponse
	cases := []wire.CoordRequest{
		{Platform: "ivybridge", Workload: "stream", Budget: mid, Strategy: "memory-first"},
		{Platform: "ivybridge", Workload: "stream", Budget: 0, Strategy: "coord"},
		{Platform: "ivybridge", Workload: "stream", Budget: -5, Strategy: "coord"},
		{Platform: "ivybridge", Workload: "stream", Budget: math.NaN(), Strategy: "coord"},
		{Platform: "ivybridge", Workload: "stream", Budget: math.Inf(1), Strategy: "coord"},
		{Platform: "nosuch", Workload: "stream", Budget: mid, Strategy: "coord"},
		{Platform: "ivybridge", Workload: "nosuch", Budget: mid, Strategy: "coord"},
		{Platform: "titanv", Workload: "stream", Budget: mid, Strategy: "coord"}, // kind mismatch
	}
	for _, req := range cases {
		if s.Coord(&req, &out) {
			t.Errorf("request %+v should miss", req)
		}
	}
	var pout wire.PlanResponse
	planCases := []wire.PlanRequest{
		{Platform: "titanv", Workload: "gpustream", Budget: mid}, // plan is CPU-only
		{Platform: "ivybridge", Workload: "bt", Budget: math.NaN()},
	}
	for _, req := range planCases {
		if s.Plan(&req, &pout) {
			t.Errorf("plan request %+v should miss", req)
		}
	}
}

// TestDegradedPairBypassesTables: when the exact path fails (degraded
// profiles, faulted sensors), the build must cache a negative result
// and every lookup must keep taking the exact path.
func TestDegradedPairBypassesTables(t *testing.T) {
	s := New(Config{})
	fault := errors.New("sensor fault")
	s.bindCoord = func(platform, wl string) (coordPath, error) {
		return func(float64) (wire.CoordResponse, error) { return wire.CoordResponse{}, fault }, nil
	}
	s.bindPlan = func(platform, wl string) (planPath, error) {
		return func(float64) (wire.PlanResponse, error) { return wire.PlanResponse{}, fault }, nil
	}
	if tab := s.coord["ivybridge"]["stream"].ensure(s.buildCoordTable); tab != nil {
		t.Fatal("coord table built from a faulting exact path")
	}
	if tab := s.plan["ivybridge"]["bt"].ensure(s.buildPlanTable); tab != nil {
		t.Fatal("plan table built from a faulting exact path")
	}
	var out wire.CoordResponse
	req := wire.CoordRequest{Platform: "ivybridge", Workload: "stream", Budget: 100, Strategy: "coord"}
	if s.Coord(&req, &out) {
		t.Fatal("degraded pair served from table")
	}
	// The negative result is cached: the slot is built, no rebuild.
	if !s.coord["ivybridge"]["stream"].built.Load() {
		t.Fatal("negative result not cached")
	}
}

// TestRegressHTTPRejectionsIdenticalWithTables: the service's
// actionable rejections — a GPU coord budget below the cap floor, a
// plan request for a GPU platform — must be byte-identical whether or
// not warmed tables sit in front of the exact path. A table that
// intercepted these (serving a clamped answer, or an empty plan from a
// built-but-vacuous table) changed the wire contract under a flag.
func TestRegressHTTPRejectionsIdenticalWithTables(t *testing.T) {
	s := New(Config{})
	prune(s, map[string][]string{
		"h100":   {"llmserve"},
		"titanv": {"gpustream"},
	})
	s.Warm()
	bare := httptest.NewServer(allocsvc.New(allocsvc.Config{Workers: 2}).Handler())
	defer bare.Close()
	tabled := httptest.NewServer(allocsvc.New(allocsvc.Config{Workers: 2, Tables: s}).Handler())
	defer tabled.Close()

	cases := []struct{ route, body string }{
		{allocsvc.RouteCoord, `{"platform":"h100","workload":"llmserve","budget_watts":150}`},
		{allocsvc.RouteCoord, `{"platform":"titanv","workload":"gpustream","budget_watts":90}`},
		{allocsvc.RoutePlan, `{"platform":"h100","workload":"llmserve","budget_watts":300}`},
		{allocsvc.RoutePlan, `{"platform":"titanv","workload":"gpustream","budget_watts":150}`},
	}
	for _, tc := range cases {
		post := func(srv *httptest.Server) (int, string) {
			resp, err := http.Post(srv.URL+tc.route, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST %s: %v", tc.route, err)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, string(b)
		}
		bcode, bbody := post(bare)
		tcode, tbody := post(tabled)
		if bcode != http.StatusBadRequest {
			t.Fatalf("%s %s: bare service answered %d (%s), want 400", tc.route, tc.body, bcode, bbody)
		}
		if tcode != bcode || tbody != bbody {
			t.Fatalf("%s %s: tables changed the rejection:\nbare   %d %s\ntabled %d %s",
				tc.route, tc.body, bcode, bbody, tcode, tbody)
		}
	}
}

// prune shrinks the set's seeded catalog to the named pairs so tests
// can warm a sub-catalog in bounded time (the full catalog warms in
// tens of seconds — a startup cost for pbc serve -tables, not for unit
// tests).
func prune(s *Set, keep map[string][]string) {
	for platform, cm := range s.coord {
		kept, ok := keep[platform]
		if !ok {
			delete(s.coord, platform)
			delete(s.plan, platform)
			continue
		}
		for wl := range cm {
			found := false
			for _, k := range kept {
				found = found || k == wl
			}
			if !found {
				delete(cm, wl)
				if pm := s.plan[platform]; pm != nil {
					delete(pm, wl)
				}
			}
		}
	}
}

// TestWarmSubCatalog builds a pruned catalog eagerly and checks the
// warm stats and that warmed pairs serve through the allocsvc.Tables
// interface the service consumes.
func TestWarmSubCatalog(t *testing.T) {
	s := New(Config{})
	prune(s, map[string][]string{
		"ivybridge": {"stream", "ep"},
		"titanv":    {"hpcg"},
	})
	st := s.Warm()
	if st.CoordTables+st.CoordSkipped != 3 {
		t.Errorf("warm visited %d coord pairs, pruned catalog has 3", st.CoordTables+st.CoordSkipped)
	}
	if st.PlanTables+st.PlanSkipped != 2 {
		t.Errorf("warm visited %d plan pairs, pruned catalog has 2", st.PlanTables+st.PlanSkipped)
	}
	if st.CoordTables == 0 {
		t.Fatalf("warm built no coord tables: %+v", st)
	}
	var tables allocsvc.Tables = s
	req := wire.CoordRequest{Platform: "ivybridge", Workload: "stream", Budget: 200, Strategy: "coord"}
	var out wire.CoordResponse
	tables.Coord(&req, &out) // hit or miss, must not panic on warm tables
	// A warmed slot must never kick a rebuild.
	if !s.coord["ivybridge"]["stream"].built.Load() {
		t.Fatal("warmed slot not marked built")
	}
}

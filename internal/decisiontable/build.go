package decisiontable

import (
	"math"
	"sort"

	"repro/internal/coord"
	"repro/internal/dyncoord"
	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/wire"
	"repro/internal/workload"
)

// probeFracs are the validation probe positions within a segment, as
// fractions of its width. The simulated perf curve is quantized (the
// RAPL actuator picks discrete P-states, the GPU governor discrete
// memory clocks), so a jump can hide anywhere between samples: probes
// are spread across the whole segment — including position 0, where
// the previous regime's value leaks in if a discontinuity sits exactly
// on the boundary — and validated against half the configured
// tolerance, leaving margin for budgets between probes. The line's two
// anchor points (1/4 and 3/4) are exact by construction.
var probeFracs = [...]float64{
	0, 1.0 / 16, 1.0 / 8, 3.0 / 16, 3.0 / 8, 1.0 / 2, 5.0 / 8,
	13.0 / 16, 7.0 / 8, 15.0 / 16, 1 - 1.0/1024,
}

// probeMargin is the fraction of the tolerance probes are held to.
const probeMargin = 0.5

// within reports |a−b| ≤ eps relative to the larger magnitude, with a
// 1 W (or 1 unit) floor so near-zero values compare absolutely.
func within(a, b, eps float64) bool {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1 {
		m = 1
	}
	return math.Abs(a-b) <= eps*m
}

// gridBounds merges the analytic breakpoints with n uniform grid
// points over [lo, hi], sorted and deduplicated. The result always
// starts at lo and ends at hi.
func gridBounds(lo, hi float64, breaks []float64, n int) []float64 {
	pts := make([]float64, 0, n+len(breaks)+2)
	pts = append(pts, lo, hi)
	for _, b := range breaks {
		if b > lo && b < hi {
			pts = append(pts, b)
		}
	}
	step := (hi - lo) / float64(n)
	for i := 1; i < n; i++ {
		pts = append(pts, lo+float64(i)*step)
	}
	sort.Float64s(pts)
	minGap := (hi - lo) * 1e-9
	out := pts[:1]
	for _, p := range pts[1:] {
		if p-out[len(out)-1] > minGap {
			out = append(out, p)
		}
	}
	// Zero-width tails collapse onto hi, never drop it.
	out[len(out)-1] = hi
	return out
}

// buildIntervals builds the segments of n grid intervals, interval i
// by build(i), on the shared engine's workers (the -workers knob), and
// returns them concatenated in interval order. Each interval's build is
// independent — it reads the table's fixed fields and samples the
// exact path, which is safe for concurrent use — and lands in its own
// slot, so the table is identical to a serial build's whatever the
// scheduling.
func buildIntervals[S any](n int, build func(i int) []S) []S {
	parts := make([][]S, n)
	evalpool.Default().Each(n, func(i int) { parts[i] = build(i) })
	var out []S
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// exactCoord samples the exact path at budget b.
func (s *Set) exactCoord(platform, wl string, b float64) (wire.CoordResponse, error) {
	return s.computeCoord(wire.CoordRequest{
		Platform: platform, Workload: wl, Budget: b, Strategy: "coord",
	})
}

// buildCoordTable constructs the coord table for one catalog pair, or
// nil when the pair cannot be tabulated (degraded profile, exact path
// erroring, statuses out of shape). nil is cached as a permanent
// negative: those pairs keep taking the exact path.
func (s *Set) buildCoordTable(pname, wname string) *coordTable {
	p, err := hw.PlatformByName(pname)
	if err != nil {
		return nil
	}
	wl, err := workload.ByName(wname)
	if err != nil {
		return nil
	}

	t := &coordTable{
		platform: pname, workload: wname, kind: p.Kind.String(),
		perfUnit:       wl.PerfUnit,
		okStatus:       coord.StatusOK.String(),
		surplusStatus:  coord.StatusSurplus.String(),
		tooSmallStatus: coord.StatusTooSmall.String(),
	}
	var breaks []float64
	switch p.Kind {
	case hw.KindCPU:
		prof, err := profile.ProfileCPU(p, wl)
		if err != nil {
			return nil
		}
		cp := prof.Critical
		t.lo = cp.ProductiveThreshold().Watts()
		t.hi = (cp.CPUMax + cp.MemMax).Watts()
		for _, b := range coord.CPUBreakpoints(prof) {
			breaks = append(breaks, b.Watts())
		}
	case hw.KindGPU:
		prof, err := profile.ProfileGPU(p, wl)
		if err != nil {
			return nil
		}
		t.lo = prof.MemMin.Watts()
		t.hi = prof.TotMax.Watts()
		t.strictLo = true
		t.memPrimary = true
		if floor := p.GPU.MinCap.Watts(); floor > t.lo {
			// The exact path rejects budgets below the settable cap
			// floor with a typed error (nvgov.ErrCapOutOfRange), so the
			// tabulated range starts at the floor — which itself is a
			// valid budget — and everything below it must miss.
			t.lo = floor
			t.strictLo = false
			t.errBelow = true
		}
		for _, b := range coord.GPUBreakpoints(prof, coord.DefaultGamma) {
			breaks = append(breaks, b.Watts())
		}
		// The evaluator cannot cap the board below its floor, so the
		// simulated perf/power kink at MinCap even though the
		// allocation does not.
		breaks = append(breaks, p.GPU.MinCap.Watts())
	default:
		return nil
	}
	if !(t.lo > 0) {
		return nil
	}
	if !(t.hi > t.lo) && !t.errBelow {
		return nil
	}

	// The rejection row: any budget below lo must reject — with a
	// too-small row the table reproduces, or (errBelow) with an error
	// the table must fall through to. Probe well below and one ulp
	// below the range edge.
	if t.errBelow {
		for _, b := range []float64{t.lo / 2, math.Nextafter(t.lo, math.Inf(-1))} {
			if _, err := s.exactCoord(pname, wname, b); err == nil {
				return nil
			}
		}
	} else {
		below, err := s.exactCoord(pname, wname, t.lo/2)
		if err != nil || below.Status != t.tooSmallStatus || below.Alloc != nil {
			return nil
		}
	}
	// The saturation row: where the allocation pins and only the
	// surplus grows. On a degenerate pair the saturation point sits at
	// or below the cap floor (hi <= lo) and every enforceable budget is
	// saturated, so the row is sampled at the floor instead.
	satB := t.hi
	if satB < t.lo {
		satB = t.lo
	}
	sat, err := s.exactCoord(pname, wname, satB)
	if err != nil || sat.Status != t.surplusStatus || sat.Alloc == nil || sat.SurplusWatts != satB-t.hi {
		return nil
	}
	t.surplusProc = sat.Alloc.ProcWatts
	t.surplusMem = sat.Alloc.MemWatts
	t.surplusPerf = sat.ExpectedPerf
	t.surplusPower = sat.ExpectedPower

	if !(t.hi > t.lo) {
		// Degenerate range: no segments, no index; serve answers every
		// enforceable budget from the saturation row and misses below
		// the floor. Confirm the row is budget-independent at a second
		// point before trusting it everywhere.
		again, err := s.exactCoord(pname, wname, t.lo*1.5)
		if err != nil || again.Status != t.surplusStatus || again.Alloc == nil ||
			*again.Alloc != *sat.Alloc || again.SurplusWatts != t.lo*1.5-t.hi ||
			again.ExpectedPerf != sat.ExpectedPerf || again.ExpectedPower != sat.ExpectedPower {
			return nil
		}
		return t
	}

	bounds := gridBounds(t.lo, t.hi, breaks, s.cfg.GridPoints)
	t.segs = buildIntervals(len(bounds)-1, func(i int) []coordSeg {
		return s.buildCoordSegs(t, bounds[i], bounds[i+1], 0)
	})
	if len(t.segs) == 0 {
		return nil
	}
	t.index()
	return t
}

// buildCoordSegs builds the segment(s) covering [start, end),
// subdividing when validation probes find the interpolation out of
// contract, and degrading to a single exact-only segment at maximum
// depth (the sliver around a simulator discontinuity).
func (s *Set) buildCoordSegs(t *coordTable, start, end float64, depth int) []coordSeg {
	bad := []coordSeg{{start: start, end: end, exactOnly: true}}
	w := end - start
	if w <= 0 {
		return nil
	}
	split := func() []coordSeg {
		if depth >= maxSplitDepth {
			return bad
		}
		mid := start + w/2
		return append(s.buildCoordSegs(t, start, mid, depth+1),
			s.buildCoordSegs(t, mid, end, depth+1)...)
	}

	t1, t2 := start+0.25*w, start+0.75*w
	if t2-t1 <= 0 {
		return bad
	}
	r1, err1 := s.exactCoord(t.platform, t.workload, t1)
	r2, err2 := s.exactCoord(t.platform, t.workload, t2)
	if err1 != nil || err2 != nil {
		return bad
	}
	if r1.Status != t.okStatus || r2.Status != t.okStatus || r1.Alloc == nil || r2.Alloc == nil {
		return split()
	}
	y1, y2 := r1.Alloc.ProcWatts, r2.Alloc.ProcWatts
	if t.memPrimary {
		y1, y2 = r1.Alloc.MemWatts, r2.Alloc.MemWatts
	}
	seg := coordSeg{
		start: start, end: end,
		primary: lineThrough(t1, y1, t2, y2),
		perf:    lineThrough(t1, r1.ExpectedPerf, t2, r2.ExpectedPerf),
		power:   lineThrough(t1, r1.ExpectedPower, t2, r2.ExpectedPower),
	}
	for _, f := range probeFracs {
		if !s.checkCoordProbe(t, &seg, start+f*w) {
			return split()
		}
	}
	for _, pb := range edgeProbes(start, end) {
		if !s.checkCoordProbe(t, &seg, pb) {
			return split()
		}
	}
	return []coordSeg{seg}
}

// edgeProbes returns the last representable budgets inside [start, end)
// at each rim. Segment boundaries sit on analytic regime breakpoints,
// but the exact path's own regime comparison can flip one ulp before
// the analytic value — a jump the fractional probes (coarsest rim
// probe: 1/1024 of the width) cannot see. Probing the exact rim forces
// such a segment to subdivide down to an exact-only sliver instead of
// interpolating across the regime change.
func edgeProbes(start, end float64) [2]float64 {
	return [2]float64{
		math.Nextafter(start, math.Inf(1)),
		math.Nextafter(end, math.Inf(-1)),
	}
}

// checkCoordProbe verifies the segment's interpolated answer at budget
// b against the exact path: status and zero surplus exactly, the
// allocation within AllocEps, perf and power within cfg.Eps.
func (s *Set) checkCoordProbe(t *coordTable, seg *coordSeg, b float64) bool {
	exact, err := s.exactCoord(t.platform, t.workload, b)
	if err != nil || exact.Status != t.okStatus || exact.Alloc == nil || exact.SurplusWatts != 0 {
		return false
	}
	y := seg.primary.at(b)
	proc, mem := y, b-y
	if t.memPrimary {
		mem, proc = y, b-y
	}
	return within(proc, exact.Alloc.ProcWatts, AllocEps) &&
		within(mem, exact.Alloc.MemWatts, AllocEps) &&
		within(seg.perf.at(b), exact.ExpectedPerf, s.cfg.Eps*probeMargin) &&
		within(seg.power.at(b), exact.ExpectedPower, s.cfg.Eps*probeMargin)
}

// index builds the uniform acceleration index over the segments.
func (t *coordTable) index() {
	n := 4 * len(t.segs)
	cellW := (t.hi - t.lo) / float64(n)
	t.invCellW = 1 / cellW
	t.cells = make([]int32, n)
	j := 0
	for i := range t.cells {
		cs := t.lo + float64(i)*cellW
		for j < len(t.segs)-1 && t.segs[j].end <= cs {
			j++
		}
		t.cells[i] = int32(j)
	}
}

func (t *planTable) index() {
	n := 4 * len(t.segs)
	cellW := (t.hi - t.lo) / float64(n)
	t.invCellW = 1 / cellW
	t.cells = make([]int32, n)
	j := 0
	for i := range t.cells {
		cs := t.lo + float64(i)*cellW
		for j < len(t.segs)-1 && t.segs[j].end <= cs {
			j++
		}
		t.cells[i] = int32(j)
	}
}

// exactPlan samples the exact plan path at budget b.
func (s *Set) exactPlan(platform, wl string, b float64) (wire.PlanResponse, error) {
	return s.computePlan(wire.PlanRequest{Platform: platform, Workload: wl, Budget: b})
}

// buildPlanTable constructs the plan table for one CPU pair, or nil
// when the pair is degraded (missing phase or whole-workload profiles
// — exactly the condition under which dyncoord falls back, so degraded
// pairs always take the exact, fallback-aware path).
func (s *Set) buildPlanTable(pname, wname string) *planTable {
	p, err := hw.PlatformByName(pname)
	if err != nil {
		return nil
	}
	wl, err := workload.ByName(wname)
	if err != nil {
		return nil
	}
	breakPts, healthy, err := dyncoord.PlanTableInputs(p, wl)
	if err != nil || !healthy || len(breakPts) == 0 {
		return nil
	}
	breaks := make([]float64, len(breakPts))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, b := range breakPts {
		breaks[i] = b.Watts()
		lo = math.Min(lo, breaks[i])
		hi = math.Max(hi, breaks[i])
	}
	if !(hi > lo) || !(lo > 0) {
		return nil
	}

	t := &planTable{platform: pname, workload: wname, lo: lo, hi: hi}
	ref, err := s.exactPlan(pname, wname, hi)
	if err != nil || len(ref.Steps) == 0 {
		return nil
	}
	for _, st := range ref.Steps {
		t.phases = append(t.phases, st.Phase)
		t.weights = append(t.weights, st.Weight)
	}

	// Constant rows for the unsegmented regions: below lo every step is
	// rejected, at and above hi every step is saturated. Each row is
	// kept only if a second sample reproduces it exactly.
	t.below = s.constPlanRow(t, lo/2, lo/4)
	t.top = s.constPlanRow(t, hi, hi*1.5+1)

	bounds := gridBounds(lo, hi, breaks, s.cfg.GridPoints)
	t.segs = buildIntervals(len(bounds)-1, func(i int) []planSeg {
		return s.buildPlanSegs(t, bounds[i], bounds[i+1], 0)
	})
	if len(t.segs) == 0 {
		return nil
	}
	t.index()
	return t
}

// constPlanRow samples the plan at b1 and confirms at b2 that every
// step is budget-independent there (rejected or saturated). It returns
// nil when any step still varies with the budget.
func (s *Set) constPlanRow(t *planTable, b1, b2 float64) *planRow {
	r1, err1 := s.exactPlan(t.platform, t.workload, b1)
	r2, err2 := s.exactPlan(t.platform, t.workload, b2)
	if err1 != nil || err2 != nil ||
		len(r1.Steps) != len(t.phases) || len(r2.Steps) != len(t.phases) {
		return nil
	}
	row := &planRow{rejected: r1.Rejected}
	if r2.Rejected != r1.Rejected {
		return nil
	}
	for i := range r1.Steps {
		a, b := &r1.Steps[i], &r2.Steps[i]
		if a.Status != b.Status || a.FellBack != b.FellBack ||
			a.Alloc != b.Alloc || a.Phase != t.phases[i] {
			return nil
		}
		st := planStepSeg{status: a.Status, fellBack: a.FellBack}
		switch a.Status {
		case coord.StatusTooSmall.String():
			st.mode = stepZero
			if a.Alloc != (wire.AllocJSON{}) {
				return nil
			}
		default:
			st.mode = stepConst
			st.proc = line{y0: a.Alloc.ProcWatts}
			st.mem = a.Alloc.MemWatts
		}
		row.steps = append(row.steps, st)
	}
	return row
}

// buildPlanSegs builds the plan segment(s) covering [start, end) with
// the same subdivide-or-degrade discipline as buildCoordSegs.
func (s *Set) buildPlanSegs(t *planTable, start, end float64, depth int) []planSeg {
	bad := []planSeg{{start: start, end: end, exactOnly: true}}
	w := end - start
	if w <= 0 {
		return nil
	}
	split := func() []planSeg {
		if depth >= maxSplitDepth {
			return bad
		}
		mid := start + w/2
		return append(s.buildPlanSegs(t, start, mid, depth+1),
			s.buildPlanSegs(t, mid, end, depth+1)...)
	}

	t1, t2 := start+0.25*w, start+0.75*w
	if t2-t1 <= 0 {
		return bad
	}
	r1, err1 := s.exactPlan(t.platform, t.workload, t1)
	r2, err2 := s.exactPlan(t.platform, t.workload, t2)
	if err1 != nil || err2 != nil ||
		len(r1.Steps) != len(t.phases) || len(r2.Steps) != len(t.phases) {
		return bad
	}
	seg := planSeg{start: start, end: end, rejected: r1.Rejected}
	if r2.Rejected != r1.Rejected {
		return split()
	}
	tooSmall := coord.StatusTooSmall.String()
	surplus := coord.StatusSurplus.String()
	for i := range r1.Steps {
		a, b := &r1.Steps[i], &r2.Steps[i]
		if a.Status != b.Status || a.FellBack != b.FellBack {
			return split()
		}
		st := planStepSeg{status: a.Status, fellBack: a.FellBack}
		switch a.Status {
		case tooSmall:
			st.mode = stepZero
			if a.Alloc != (wire.AllocJSON{}) || b.Alloc != (wire.AllocJSON{}) {
				return split()
			}
		case surplus:
			st.mode = stepConst
			if a.Alloc != b.Alloc {
				return split()
			}
			st.proc = line{y0: a.Alloc.ProcWatts}
			st.mem = a.Alloc.MemWatts
		default: // "ok": the allocation sums to the budget
			st.mode = stepLinear
			st.proc = lineThrough(t1, a.Alloc.ProcWatts, t2, b.Alloc.ProcWatts)
		}
		seg.steps = append(seg.steps, st)
	}
	for _, f := range probeFracs {
		if !s.checkPlanProbe(t, &seg, start+f*w) {
			return split()
		}
	}
	for _, pb := range edgeProbes(start, end) {
		if !s.checkPlanProbe(t, &seg, pb) {
			return split()
		}
	}
	return []planSeg{seg}
}

// checkPlanProbe verifies the segment's emitted plan at budget b
// against the exact path.
func (s *Set) checkPlanProbe(t *planTable, seg *planSeg, b float64) bool {
	exact, err := s.exactPlan(t.platform, t.workload, b)
	if err != nil || len(exact.Steps) != len(seg.steps) || exact.Rejected != seg.rejected {
		return false
	}
	var got wire.PlanResponse
	t.emit(b, seg.steps, seg.rejected, &got)
	for i := range exact.Steps {
		e, g := &exact.Steps[i], &got.Steps[i]
		if e.Status != g.Status || e.FellBack != g.FellBack ||
			e.Phase != g.Phase || e.Weight != g.Weight ||
			!within(g.Alloc.ProcWatts, e.Alloc.ProcWatts, AllocEps) ||
			!within(g.Alloc.MemWatts, e.Alloc.MemWatts, AllocEps) {
			return false
		}
	}
	return true
}

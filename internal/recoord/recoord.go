// Package recoord closes the coordination loop: an online controller
// that watches workload telemetry (activity and stall gauges) for phase
// shifts and re-runs GPU power coordination whenever the running
// phase's character changes.
//
// Static COORD (Algorithm 2) picks one split from an aggregate,
// whole-run profile. On a phased ML-inference workload that aggregate
// lies: llmbatch's token-weighted intensity reads compute-bound (most
// tokens are prefill) while most of the wall time is bandwidth-bound
// decode, so the static split starves whichever phase the aggregate
// hides. The controller instead keeps the static decision only as its
// opening setting and its always-available fallback candidate: each
// detected phase shift triggers a re-coordination that evaluates the
// card's settable operating points against the phase actually running
// and switches only for a clear win. The static setting stays in every
// candidate slate and a switch needs a SwitchMargin gain, so online
// performance can trail static COORD only during the detection lag —
// never at steady state.
//
// A run simulates its whole slate once, up front: every phase at every
// candidate and at the governor's point, one batch fanned over the
// evaluation engine's workers. Every tick, visit, dwell share and
// re-coordination then reads that table. The table is memoized whole
// on the engine, keyed by the aggregate (platform, workload) content
// and the budget — the static candidate depends on the whole workload,
// so no per-phase key would do. The aggregate profile comes from the
// same engine, so a run on a Serial engine is fully uncached.
//
// Everything is driven in virtual time: the trace, the detector, and
// the evaluations are pure functions of the configuration, so two runs
// produce byte-identical results (the property the experiments artifact
// asserts). Nothing here reads wall clocks or random state.
package recoord

import (
	"fmt"

	"repro/internal/coord"
	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/nvgov"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// Defaults for Config.
const (
	// DefaultRounds is how many full phase cycles the trace runs.
	DefaultRounds = 3
	// DefaultTicksPerRound is the number of virtual telemetry samples in
	// one cycle through the workload's phases.
	DefaultTicksPerRound = 96
	// DefaultDetectSamples is the hysteresis depth: how many consecutive
	// out-of-band samples the detector needs before it declares a phase
	// shift. 1 would re-coordinate on a single noisy sample; large
	// values stretch the lag during which the stale setting keeps
	// running.
	DefaultDetectSamples = 2
	// DefaultActivityDelta and DefaultStallDelta are the detection
	// thresholds on the two watched gauges, as absolute deviations from
	// the values captured at the last coordination.
	DefaultActivityDelta = 0.08
	DefaultStallDelta    = 0.05
	// DefaultSwitchMargin is the minimum relative perf gain a candidate
	// needs over the running setting before the controller switches.
	// Re-programming a cap is not free on real governors, and a margin
	// also keeps the comparison against static COORD one-sided.
	DefaultSwitchMargin = 0.01
)

// Config parameterizes one controller run. Platform, Workload, and
// Budget are required; everything else defaults.
type Config struct {
	Platform hw.Platform
	Workload workload.Workload
	// Budget is the board power bound. Budgets below the card's settable
	// cap floor are rejected with nvgov's typed error, exactly like the
	// allocation service's exact path.
	Budget units.Power

	// Rounds and TicksPerRound shape the virtual-time trace.
	Rounds, TicksPerRound int
	// DetectSamples, ActivityDelta, StallDelta tune the phase-shift
	// detector; SwitchMargin tunes the switch decision.
	DetectSamples             int
	ActivityDelta, StallDelta float64
	SwitchMargin              float64
	// Registry, when set, receives the controller's instruments
	// (activity/stall gauges, switch and re-coordination counters). The
	// detector reads the gauges back through the registry — the
	// controller sees exactly what an operator scraping /metrics sees.
	Registry *telemetry.Registry
	// Engine is the evaluation engine; nil means evalpool.Default().
	Engine *evalpool.Engine
}

func (cfg *Config) normalize() {
	if cfg.Rounds <= 0 {
		cfg.Rounds = DefaultRounds
	}
	if cfg.TicksPerRound <= 0 {
		cfg.TicksPerRound = DefaultTicksPerRound
	}
	if cfg.DetectSamples <= 0 {
		cfg.DetectSamples = DefaultDetectSamples
	}
	if cfg.ActivityDelta <= 0 {
		cfg.ActivityDelta = DefaultActivityDelta
	}
	if cfg.StallDelta <= 0 {
		cfg.StallDelta = DefaultStallDelta
	}
	if cfg.SwitchMargin <= 0 {
		cfg.SwitchMargin = DefaultSwitchMargin
	}
	if cfg.Engine == nil {
		cfg.Engine = evalpool.Default()
	}
}

// Setting is one GPU operating point: a board cap and the memory power
// budget steering the clock choice (the OpGPUMemPower knob pair).
type Setting struct {
	Proc, Mem units.Power
}

// PhaseVisit reports one contiguous phase interval of the trace.
type PhaseVisit struct {
	// Phase names the workload phase that ran.
	Phase string
	// Ticks is the interval length in samples; LagTicks of those ran on
	// the previous interval's setting before the detector fired.
	Ticks, LagTicks int
	// Recoordinated reports whether this visit triggered a
	// re-coordination (the first visit never does: the controller opens
	// on the static decision).
	Recoordinated bool
	// Setting is the operating point in effect at the end of the visit.
	Setting Setting
	// OnlinePerf is the time-weighted performance over the visit;
	// StaticPerf and GovernorPerf are the baselines evaluated on the
	// same phase.
	OnlinePerf, StaticPerf, GovernorPerf float64
}

// Result is one controller run compared against both baselines on the
// identical virtual-time trace.
type Result struct {
	Platform, Workload string
	Budget             units.Power
	PerfUnit           string

	// OnlinePerf, StaticPerf, and GovernorPerf are overall
	// time-weighted performances: online is the controller, static is
	// COORD's single aggregate-profile split held for the whole trace,
	// governor is the default policy (board cap at the budget, memory
	// at its nominal clock).
	OnlinePerf, StaticPerf, GovernorPerf float64

	// Recoordinations counts detector firings; Switches counts how many
	// changed the setting (a re-coordination that confirms the running
	// setting is not a switch).
	Recoordinations, Switches int

	// StaticSetting is COORD's opening operating point.
	StaticSetting Setting
	// Visits is the phase timeline in trace order.
	Visits []PhaseVisit
}

// Gain is the online-over-static improvement as a fraction (0.07 means
// 7% more throughput than static COORD).
func (r *Result) Gain() float64 {
	if r.StaticPerf <= 0 {
		return 0
	}
	return r.OnlinePerf/r.StaticPerf - 1
}

// singlePhase returns a copy of w narrowed to phase i with weight 1 —
// the problem the engine evaluates while that phase is running.
func singlePhase(w workload.Workload, i int) workload.Workload {
	ph := w.Phases[i]
	ph.Weight = 1
	out := w
	out.Name = w.Name + "#" + ph.Name
	out.Phases = []workload.Phase{ph}
	return out
}

// point is one simulated steady state of the slate.
type point struct {
	perf, activity, stall float64
}

// controller holds one run's state.
type controller struct {
	cfg Config
	gpu *hw.GPUSpec

	cap units.Power // enforceable board cap: min(budget, MaxCap)
	// candidates is the slate's operating points; the static decision
	// is the last one.
	candidates []Setting
	// table holds the slate's steady states phase-major: row i is phase
	// i, column j < len(candidates) is candidates[j], and the last
	// column is the governor's point.
	table []point

	activity, stall *telemetry.Gauge
	recoords        *telemetry.Counter
	switches        *telemetry.Counter

	// refActivity/refStall are the gauge values captured at the last
	// coordination; outOfBand counts consecutive deviating samples.
	refActivity, refStall float64
	outOfBand             int
}

// Run executes one controller run. The error paths mirror the
// allocation service: non-GPU platforms and invalid budgets are
// rejected up front, and a budget below the card's settable cap floor
// returns the typed nvgov rejection.
func Run(cfg Config) (Result, error) {
	cfg.normalize()
	p, w := cfg.Platform, cfg.Workload
	if p.Kind != hw.KindGPU {
		return Result{}, fmt.Errorf("recoord: platform %q is not a GPU platform", p.Name)
	}
	if err := w.Validate(); err != nil {
		return Result{}, fmt.Errorf("recoord: %w", err)
	}
	if w.Kind != hw.KindGPU {
		return Result{}, fmt.Errorf("recoord: workload %q is not a GPU workload", w.Name)
	}
	if !(cfg.Budget.Watts() > 0) {
		return Result{}, fmt.Errorf("recoord: budget must be a positive power bound, got %v", cfg.Budget)
	}
	if cfg.Budget < p.GPU.MinCap {
		return Result{}, nvgov.CheckCap(p.GPU, cfg.Budget)
	}

	c := &controller{cfg: cfg, gpu: p.GPU}
	if err := c.prepare(); err != nil {
		return Result{}, err
	}
	return c.run()
}

// prepare profiles the aggregate workload, derives the static COORD
// decision and the candidate slate, looks up or simulates the slate
// table, and registers the instruments.
func (c *controller) prepare() error {
	p, w := c.cfg.Platform, c.cfg.Workload
	prof, err := profile.ProfileGPUOn(c.cfg.Engine, p, w)
	if err != nil {
		return err
	}

	c.cap = c.cfg.Budget
	if c.cap > c.gpu.MaxCap {
		c.cap = c.gpu.MaxCap
	}

	d := coord.GPU(prof, c.cfg.Budget, coord.DefaultGamma)
	if d.Status == coord.StatusTooSmall {
		// Unreachable for real cards (the cap floor sits above the
		// memory floor, and sub-floor budgets were rejected above), but
		// a custom platform could get here.
		return fmt.Errorf("recoord: budget %v below the productive threshold (memory floor %v)",
			c.cfg.Budget, prof.MemMin)
	}
	staticCap := d.Alloc.Total()
	if staticCap < c.gpu.MinCap {
		// Surplus decisions pin the application demand, which may sit
		// under the settable floor; the governor would be programmed at
		// its floor then (same clamp the allocation service applies).
		staticCap = c.gpu.MinCap
	}
	if staticCap > c.cap {
		staticCap = c.cap
	}

	// The candidate slate: one operating point per settable memory
	// clock, all under the enforceable cap, plus the static decision.
	// The slate is fixed up front — re-coordination picks from it by
	// measurement, it does not invent new points.
	for _, f := range c.gpu.Mem.Clocks() {
		c.candidates = append(c.candidates, Setting{Proc: c.cap, Mem: c.gpu.Mem.Power(f)})
	}
	c.candidates = append(c.candidates, Setting{Proc: staticCap, Mem: d.Alloc.Mem})

	aggregate := c.cfg.Engine.Bind(evalpool.Problem{Platform: p, Workload: w})
	c.table, err = evalpool.DeriveWeighted(aggregate, "recoord.slates", c.cfg.Budget.Watts(),
		len(w.Phases)*c.width(), c.simulate)
	if err != nil {
		return err
	}

	reg := c.cfg.Registry
	if reg != nil {
		labels := []string{"platform", p.Name, "workload", w.Name}
		c.activity = reg.Gauge("recoord_activity",
			"Converged processor activity factor of the running phase.", labels...)
		c.stall = reg.Gauge("recoord_stall_frac",
			"Fraction of time the running phase stalls on memory.", labels...)
		c.recoords = reg.Counter("recoord_recoordinations_total",
			"Phase shifts detected and re-coordinated.", labels...)
		c.switches = reg.Counter("recoord_switches_total",
			"Re-coordinations that changed the operating point.", labels...)
	}
	return nil
}

// width is the table's row length: every candidate, then the
// governor's point.
func (c *controller) width() int { return len(c.candidates) + 1 }

// static and governor are the table columns of the static decision and
// of the governor's point.
func (c *controller) static() int   { return len(c.candidates) - 1 }
func (c *controller) governor() int { return len(c.candidates) }

// at returns phase i's steady state at table column j.
func (c *controller) at(i, j int) point { return c.table[i*c.width()+j] }

// simulate builds the slate table: each cell one simulator call on the
// single-phase problem, the batch spread over the engine's workers.
func (c *controller) simulate() ([]point, error) {
	p, w, eng := c.cfg.Platform, c.cfg.Workload, c.cfg.Engine
	phases := make([]evalpool.Problem, len(w.Phases))
	for i := range phases {
		phases[i] = evalpool.Problem{Platform: p, Workload: singlePhase(w, i)}
	}
	n := c.width()
	table := make([]point, len(phases)*n)
	errs := make([]error, len(table))
	eng.Each(len(table), func(k int) {
		req := evalpool.Request{Op: evalpool.OpGPUClock, Proc: c.cap, Clock: c.gpu.Mem.ClockNom}
		if j := k % n; j != c.governor() {
			s := c.candidates[j]
			req = evalpool.Request{Op: evalpool.OpGPUMemPower, Proc: s.Proc, Mem: s.Mem}
		}
		res, err := eng.Evaluate(phases[k/n], req)
		if err != nil {
			errs[k] = err
			return
		}
		activity := res.ComputeUtil
		if len(res.Phases) == 1 {
			activity = res.Phases[0].Activity
		}
		table[k] = point{perf: res.Perf, activity: activity, stall: res.StallFrac}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return table, nil
}

// recoordinate picks the best candidate for phase i by measurement and
// returns the winner's column — the current one unless a candidate
// beats it by the switch margin. Ties inside the margin keep the
// incumbent, and equal-perf candidates resolve by slate order, so the
// choice is deterministic.
func (c *controller) recoordinate(i, current int) (int, bool) {
	c.recoords.Inc()
	curPerf := c.at(i, current).perf
	best, bestPerf := current, curPerf
	for j, cand := range c.candidates {
		if cand == c.candidates[current] {
			continue
		}
		if perf := c.at(i, j).perf; perf > bestPerf {
			best, bestPerf = j, perf
		}
	}
	if best != current && bestPerf >= curPerf*(1+c.cfg.SwitchMargin) {
		c.switches.Inc()
		return best, true
	}
	return current, false
}

// observe feeds the gauges from the running phase's steady state and
// reports whether the detector fired. The detector reads the values
// back from the gauges (registry-backed when one is attached): the
// controller reacts to the same series the operator scrapes.
func (c *controller) observe(activity, stallFrac float64) bool {
	c.activity.Set(activity)
	c.stall.Set(stallFrac)
	a, s := activity, stallFrac
	if c.activity != nil {
		a, s = c.activity.Value(), c.stall.Value()
	}
	if abs(a-c.refActivity) > c.cfg.ActivityDelta || abs(s-c.refStall) > c.cfg.StallDelta {
		c.outOfBand++
	} else {
		c.outOfBand = 0
	}
	if c.outOfBand >= c.cfg.DetectSamples {
		c.outOfBand = 0
		return true
	}
	return false
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// trace lays out one round of the virtual-time schedule: each phase
// gets ticks proportional to its wall-time share under the static
// setting (what an operator can estimate offline), with at least
// DetectSamples+1 ticks so every phase is detectable at all.
func (c *controller) trace() ([]int, error) {
	w := c.cfg.Workload
	shares := make([]float64, len(w.Phases))
	var total float64
	for i, ph := range w.Phases {
		perf := c.at(i, c.static()).perf
		if perf <= 0 {
			return nil, fmt.Errorf("recoord: phase %q produced no throughput under the static setting", ph.Name)
		}
		shares[i] = ph.Weight / perf
		total += shares[i]
	}
	ticks := make([]int, len(shares))
	minTicks := c.cfg.DetectSamples + 1
	for i, s := range shares {
		ticks[i] = int(float64(c.cfg.TicksPerRound) * s / total)
		if ticks[i] < minTicks {
			ticks[i] = minTicks
		}
	}
	return ticks, nil
}

// run drives the trace.
func (c *controller) run() (Result, error) {
	cfg := &c.cfg
	w := cfg.Workload
	static := c.static()
	res := Result{
		Platform: cfg.Platform.Name, Workload: w.Name,
		Budget: cfg.Budget, PerfUnit: w.PerfUnit,
		StaticSetting: c.candidates[static],
	}

	ticks, err := c.trace()
	if err != nil {
		return Result{}, err
	}

	current := static
	// The opening reference: the first phase's steady state under the
	// static setting. The controller has just coordinated (statically),
	// so the detector arms against what it is about to see.
	open := c.at(0, current)
	c.refActivity, c.refStall = open.activity, open.stall

	var onlineTime, staticTime, governorTime float64 // Σ perf·ticks
	var totalTicks int
	for round := 0; round < cfg.Rounds; round++ {
		for i := range w.Phases {
			staticPerf, govPerf := c.at(i, static).perf, c.at(i, c.governor()).perf
			visit := PhaseVisit{Phase: w.Phases[i].Name, Ticks: ticks[i],
				StaticPerf: staticPerf, GovernorPerf: govPerf}

			// The steady state of (phase i, current) is a pure function of
			// the pair: the detector sees the same sample every tick until
			// a switch.
			pt := c.at(i, current)
			var visitPerfTime float64
			for tick := 0; tick < ticks[i]; tick++ {
				if c.observe(pt.activity, pt.stall) {
					next, switched := c.recoordinate(i, current)
					visit.Recoordinated = true
					visit.LagTicks = tick + 1
					res.Recoordinations++
					if switched {
						res.Switches++
						current = next
						pt = c.at(i, current)
					}
					// Re-arm the detector on the post-coordination
					// steady state, switched or not: the shift has been
					// adjudicated.
					c.refActivity, c.refStall = pt.activity, pt.stall
				}
				visitPerfTime += pt.perf
			}
			visit.Setting = c.candidates[current]
			visit.OnlinePerf = visitPerfTime / float64(ticks[i])
			res.Visits = append(res.Visits, visit)

			onlineTime += visitPerfTime
			staticTime += staticPerf * float64(ticks[i])
			governorTime += govPerf * float64(ticks[i])
			totalTicks += ticks[i]
		}
	}
	res.OnlinePerf = onlineTime / float64(totalTicks)
	res.StaticPerf = staticTime / float64(totalTicks)
	res.GovernorPerf = governorTime / float64(totalTicks)
	return res, nil
}

// Package invariant is the repository's cross-implementation
// correctness harness: it sweeps every (platform × workload ×
// budget-grid) combination of the seeded catalog and checks
// machine-verifiable invariants that the paper's analysis depends on.
// Where package validate checks the *simulator physics* (caps
// respected, monotone response, determinism), this package checks the
// *coordination stack built on top of it*: the COORD heuristic
// (Algorithms 1–2), the scenario classifier (Section 3.2), the
// exhaustive solver, and the memoized parallel evaluation engine.
//
// The checked invariants, with their paper justification:
//
//   - budget-bound: no strategy ever allocates more than the budget
//     (P_proc + P_mem ≤ P_b, Section 2.2's constraint), within the
//     actuator slack core.Best tolerates.
//   - alloc-finite: allocations are finite, non-negative numbers — a
//     NaN or negative member means a validation hole upstream.
//   - surplus-balance: when a decision reports StatusSurplus,
//     Alloc.Total() + Surplus == budget exactly (Section 6.2: the
//     surplus is returned to the cluster scheduler, so double counting
//     would corrupt cluster-level accounting).
//   - reject-threshold: Algorithm 1 rejects exactly the budgets below
//     P_cpu_L2 + P_mem_L2 (Section 5.1's productive threshold);
//     Algorithm 2 rejects budgets at or below the memory power floor.
//   - surplus-iff: surplus is reported exactly when the budget covers
//     the application's maximum demand (scenario I / P_tot_max).
//   - mem-range: Algorithm 2 keeps the memory budget within the card's
//     settable range [P_mem_min, P_mem_max] (Section 5.2).
//   - coord-gap: COORD's achieved performance stays within a
//     per-regime tolerance of the exhaustive-sweep best — the paper's
//     headline claim (Figure 9: "within a few percent").
//   - perfmax-monotone: the upper performance bound perf_max(P_b) is
//     non-decreasing in the budget (Section 3.1, Figures 1–2: more
//     power can never hurt the optimum).
//   - coord-monotone: COORD's achieved performance is non-decreasing
//     in the budget up to a small regime-transition tolerance.
//   - classify-stable: the scenario classifier does not flap within
//     ±ε of the seven critical powers (Section 3.2's boundaries are
//     half-open: the boundary value belongs to the upper side).
//   - classify-scale: scaling a workload's critical powers and the
//     caps by the same factor does not change the scenario — the
//     categorization is about *ratios* of demand to cap, not absolute
//     watts.
//   - engine-identical: profiles, sweeps, COORD decisions, and
//     dyncoord plans computed through the parallel, memoized engine
//     are identical to the serial, uncached reference — cold cache and
//     warm (the acceptance gate PR 2 established for figures, extended
//     to the coordination paths).
//   - pool-nonneg: the cluster scheduler never reports a negative
//     remaining pool, and the fault-injected queue engine hands the
//     whole budget back once the queue drains.
//   - pool-conservation: granted budgets plus the remaining pool equal
//     the cluster budget (surplus reclaim moves power, never creates
//     it), and the identity pool + committed grants + shock-held power
//     == budget survives every shock eviction and re-admission of the
//     fault engine.
//   - expected-power-sum: Outcome.TotalExpectedPower is exactly the
//     sum of per-placement expected draws.
//   - schedule-complete: every job submitted to a scheduling round is
//     either placed or deferred, never dropped.
//   - schedule-work-conserving: a round defers a job that still has a
//     free node of its kind only when the power it leaves is below the
//     job's productive threshold (each job is decided at the pool the
//     jobs before it left, their surplus already returned).
//
// When Config.Tables supplies a decision-table set, four further
// invariants hold the precomputed fast path to the exact one:
// table-built, table-exact-gap, table-plan-gap, and table-monotone
// (documented in table.go).
//
// Unless Config.SkipTree is set, the harness also sweeps the
// hierarchical budget-tree invariants over a heterogeneous 2-rack
// fixture (tree.go): tree-conservation (children sum to the parent's
// share exactly, in integer quanta, at every interior node),
// tree-monotone (granted power non-decreasing everywhere, total
// performance non-decreasing across the shed-free regime),
// tree-shed-minimal (no shed leaf is re-admissible and SLA priority
// order is respected), and tree-metamorphic (sibling permutation and
// uncapped-rack splitting change nothing).
package invariant

import (
	"fmt"
	"sort"

	"repro/internal/category"
	"repro/internal/decisiontable"
	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// Violation is one failed invariant check.
type Violation struct {
	// Invariant names the violated invariant (see the package comment).
	Invariant string
	// Platform and Workload name the pair under check.
	Platform, Workload string
	// Budget is the power bound the check ran at (0 when the check is
	// not budget-specific).
	Budget units.Power
	// Detail describes the specific violation.
	Detail string
}

// String renders "invariant platform/workload@budget: detail".
func (v Violation) String() string {
	at := ""
	if v.Budget != 0 {
		at = "@" + v.Budget.String()
	}
	return fmt.Sprintf("%s %s/%s%s: %s", v.Invariant, v.Platform, v.Workload, at, v.Detail)
}

// Tally counts checks and violations for one invariant.
type Tally struct {
	Checks, Violations int
}

// Report aggregates a harness run.
type Report struct {
	// Pairs is the number of (platform, workload) combinations checked.
	Pairs int
	// Checks is the total number of individual invariant assertions.
	Checks int
	// PerInvariant tallies assertions by invariant name.
	PerInvariant map[string]*Tally
	// Violations lists every failed assertion.
	Violations []Violation
}

// Invariants returns the checked invariant names in sorted order.
func (r *Report) Invariants() []string {
	names := make([]string, 0, len(r.PerInvariant))
	for n := range r.PerInvariant {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Ok reports whether the run found no violations.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Config parameterizes a harness run. The zero value checks the full
// seeded catalog with defaults.
type Config struct {
	// Platforms and Workloads restrict the sweep; empty means the full
	// catalog (hw.PlatformByName's entries) / workload.AllWorkloads()
	// sets, modern platforms and phased ML-inference workloads included.
	Platforms []hw.Platform
	Workloads []workload.Workload
	// BudgetPoints is the number of budget-grid points per pair
	// (default 16). The grid always brackets every allocation regime:
	// from below the productive threshold to above the maximum demand.
	BudgetPoints int
	// Eps is the probe distance for boundary-stability checks
	// (default 1e-9 W).
	Eps units.Power
	// SkipEngine disables the cross-engine determinism checks, which
	// temporarily reconfigure the process-wide shared engine and are
	// therefore not safe under concurrent engine use.
	SkipEngine bool
	// Tables, when set, enables the decision-table invariants
	// (table-built, table-exact-gap, table-plan-gap, table-monotone)
	// against that set: each pair's tables are built synchronously and
	// swept on and off the grid against the exact compute path. nil
	// skips the table checks.
	Tables *decisiontable.Set
	// SkipTree disables the hierarchical budget-tree sweep (tree.go),
	// which profiles the heterogeneous fixture's four pairs through the
	// shared default engine.
	SkipTree bool
}

func (cfg *Config) normalize() {
	if len(cfg.Platforms) == 0 {
		// The shared catalog entries, in AllPlatforms order: their
		// actuators read the ladders built once with the catalog.
		for _, p := range hw.AllPlatforms() {
			p, _ = hw.PlatformByName(p.Name)
			cfg.Platforms = append(cfg.Platforms, p)
		}
	}
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = workload.AllWorkloads()
	}
	if cfg.BudgetPoints <= 0 {
		cfg.BudgetPoints = 16
	}
	if cfg.Eps <= 0 {
		cfg.Eps = 1e-9
	}
}

// collector accumulates check results into a report.
type collector struct {
	rep      *Report
	platform string
	workload string
}

// check records one assertion: ok means the invariant held; when it did
// not, the formatted detail becomes a violation.
func (c *collector) check(invariant string, budget units.Power, ok bool, format string, args ...any) {
	t := c.rep.PerInvariant[invariant]
	if t == nil {
		t = &Tally{}
		c.rep.PerInvariant[invariant] = t
	}
	t.Checks++
	c.rep.Checks++
	if ok {
		return
	}
	t.Violations++
	c.rep.Violations = append(c.rep.Violations, Violation{
		Invariant: invariant,
		Platform:  c.platform,
		Workload:  c.workload,
		Budget:    budget,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// boundSlack mirrors core's actuator-quantization slack when comparing
// allocated totals against budgets.
const boundSlack = units.Power(1e-6)

// gapTol returns the COORD-vs-exhaustive-best tolerance for a budget
// regime, keyed on where Table 1 places the optimum. The tolerances are
// calibrated to this simulator's measured envelope over the full seeded
// catalog, tightest where the heuristic is provably near-exact:
//
//   - Scenario I (surplus): COORD pins the exact measured demands, so
//     only the 2% profiling margin separates it from the optimum.
//   - Scenario II regime: the memory-first warranty costs the most at
//     the regime's lower edge — memory holds P_mem_L1 while the CPU
//     sits near its lowest P-state, where the optimum trades DRAM
//     headroom for CPU frequency. Measured worst case 23.3%
//     (haswell/dgemm just above P_cpu_L2 + P_mem_L1).
//   - Scenario III regime: the proportional split tracks the optimum
//     more closely; measured worst case 10.9%.
//
// A regression that degrades COORD beyond these envelopes — a regime
// misclassification, an inverted split — still trips the check.
func gapTol(loc category.OptimalLocation) float64 {
	switch loc.IntersectionLo {
	case category.ScenarioI:
		return 0.02 // surplus regime: COORD pins the exact demands
	case category.ScenarioII:
		return 0.25 // II∩III, memory-first warranty at the regime edge
	case category.ScenarioIII:
		return 0.12 // III∩IV, proportional-split region
	default:
		return 0.15 // deep throttle regimes
	}
}

// gpuGapTol is the COORD-vs-best tolerance on GPU platforms. The sweep
// enumerates discrete memory clocks while Algorithm 2 splits power
// continuously, so the gap concentrates at small board caps where one
// clock step is a large budget fraction (measured worst case 14.6%,
// titanv/sgemm at the 100 W cap floor). The H100-class platforms fit
// under the same tolerance only because their HBM clock floor keeps
// bandwidth adequate when Algorithm 2 pins memory at P_mem_min — see
// the GPUMemSpec.ClockMin comments in internal/hw.
const gpuGapTol = 0.16

// gpuPhasedGapTol relaxes coord-gap for multi-phase GPU workloads.
// Algorithm 2 picks one static split from the aggregate profile, while
// the grid optimum can favor whichever single setting suits the phase
// mix at that budget; a compute-bound prefill blended with a
// bandwidth-bound decode legitimately leaves a much larger static gap:
// the token-weighted aggregate reads compute-bound (llmbatch: 63 ops/B)
// so Algorithm 2 pins memory at its floor, while the decode phase —
// 3% of tokens but most of the wall time at 1.4 GB per token —
// wants the opposite split (measured worst case 51.9%, h200/llmbatch
// at 233.3 W). This is the static-coordination deficiency
// internal/recoord's online re-coordination exists to close; the
// invariant only guards against total collapse, it does not bless
// static COORD as near-optimal on phased mixes.
const gpuPhasedGapTol = 0.55

// coordMonotoneTol is the relative dip COORD's achieved performance may
// show when a growing budget crosses a regime boundary: entering the
// memory-adequate regime re-bases the split (memory jumps to P_mem_L1,
// the CPU falls back to near P_cpu_L2), which costs up to ~2% measured
// before the extra budget wins it back.
const coordMonotoneTol = 0.03

// Run executes the harness over the configured catalog.
func Run(cfg Config) (*Report, error) {
	cfg.normalize()
	rep := &Report{PerInvariant: make(map[string]*Tally)}
	for _, p := range cfg.Platforms {
		for _, w := range cfg.Workloads {
			if w.Kind != p.Kind {
				continue
			}
			rep.Pairs++
			c := &collector{rep: rep, platform: p.Name, workload: w.Name}
			var err error
			switch p.Kind {
			case hw.KindCPU:
				err = checkCPUPair(cfg, c, p, w)
			case hw.KindGPU:
				err = checkGPUPair(cfg, c, p, w)
			}
			if err != nil {
				return rep, fmt.Errorf("invariant: %s/%s: %w", p.Name, w.Name, err)
			}
			if err := checkClusterPair(cfg, c, p, w); err != nil {
				return rep, fmt.Errorf("invariant: %s/%s: cluster check: %w", p.Name, w.Name, err)
			}
			if !cfg.SkipEngine {
				if err := checkEngineIdentical(c, p, w); err != nil {
					return rep, fmt.Errorf("invariant: %s/%s: engine check: %w", p.Name, w.Name, err)
				}
			}
			if cfg.Tables != nil {
				checkTablePair(cfg, c, cfg.Tables, p, w)
			}
		}
	}
	if !cfg.SkipTree {
		if err := checkTree(cfg, rep); err != nil {
			return rep, fmt.Errorf("invariant: tree sweep: %w", err)
		}
	}
	return rep, nil
}

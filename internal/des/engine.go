package des

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Mode selects what a run records beside its Result. Both modes run one
// engine and return bit-identical Results apart from Mode and Queue.
type Mode int

// Modes.
const (
	// ModeExact records the per-job result (Result.Queue) and the
	// transitions into Config.Log. A run whose jobs all arrive at t=0
	// reproduces the frozen goldens in testdata byte for byte.
	ModeExact Mode = iota
	// ModeFast records neither, so memory stays flat in the number of
	// events: built for 10k-node, million-job traces with streaming
	// stats.
	ModeFast
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeFast:
		return "fast"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses "exact" or "fast".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "exact":
		return ModeExact, nil
	case "fast":
		return ModeFast, nil
	default:
		return 0, fmt.Errorf("des: unknown mode %q (valid: exact fast)", s)
	}
}

// Default engine bounds. Exact mode's records grow with the events, so
// it caps its event loop at a million; fast mode gets headroom for
// million-job traces.
const (
	defaultMaxEventsExact = 1_000_000
	defaultMaxEventsFast  = 1 << 25
	defaultMaxJobs        = 1 << 22
)

// Config describes one simulation run.
type Config struct {
	// Sched is the cluster under simulation (budget + nodes).
	Sched *cluster.Scheduler
	// Workload is the workload every generated job runs.
	Workload workload.Workload
	// Policy and Discipline select the admission semantics.
	Policy     cluster.SplitPolicy
	Discipline cluster.Discipline

	// Jobs arrive at t=0 ahead of any generated traffic, in queue
	// order, each running its own workload.
	Jobs []cluster.TimedJob
	// Arrivals seeds the open-arrival process over [0, Horizon).
	Arrivals ArrivalSpec
	// Seed drives the arrival process. Same seed, same traffic.
	Seed uint64
	// Horizon closes the arrival window, in simulated seconds. The run
	// itself continues until every admitted job completes.
	Horizon float64

	// Injector, when non-nil, disturbs the run with node outages and
	// budget shocks on its deterministic schedule (see internal/faults).
	Injector *faults.Injector
	// Log, when non-nil, receives the cluster transitions of an
	// exact-mode run: node failures and recoveries, budget shocks and
	// restores, and each eviction's reclaim and re-admission. Fast mode
	// records none.
	Log *trace.EventLog

	// Mode selects the records kept; the zero value is ModeExact.
	Mode Mode
	// MaxEvents bounds the event loop (0 = per-mode default). Exceeding
	// it is an error, converting hostile configs into diagnostics
	// instead of unbounded spins.
	MaxEvents int
	// MaxJobs bounds the generated arrival trace (0 = default 4Mi).
	MaxJobs int
}

// Result summarizes one run with streaming aggregates.
type Result struct {
	Mode Mode
	// Arrived counts jobs entering the system (t=0 jobs + generated).
	Arrived int
	// Completed counts jobs that ran to completion.
	Completed int
	// EngineEvents counts discrete events processed (arrivals,
	// completions, outage transitions, shock edges).
	EngineEvents int
	// Makespan is the completion time of the last job, in simulated
	// seconds.
	Makespan float64
	// Energy is the total cluster energy over the run.
	Energy units.Energy
	// AvgWait and AvgTurnaround are per-completed-job means measured
	// from each job's arrival time. MaxSlowdown is the worst ratio of
	// turnaround to time-in-service.
	AvgWait, AvgTurnaround, MaxSlowdown float64
	// Faults carries the fault accounting (zero counts without an
	// injector).
	Faults FaultSummary
	// TraceHash fingerprints the full event trace (FNV-1a over every
	// event's time bits, kind, job and node). Two runs of the same
	// config are byte-reproducible iff their hashes match.
	TraceHash uint64
	// Queue is the full per-job result: events, stats, makespan and
	// energy. Exact mode only; nil in fast mode (per-job maps don't
	// scale).
	Queue *cluster.QueueResult
}

// FaultSummary counts what the engine handled under an injector.
type FaultSummary struct {
	// NodeFailures and NodeRecoveries count node outage transitions.
	NodeFailures, NodeRecoveries int
	// Readmissions counts jobs returned to the queue because their node
	// failed or a budget shock evicted them; each re-admission reclaims
	// the job's grant into the pool.
	Readmissions int
	// Shocks counts facility budget shocks applied.
	Shocks int
	// BudgetReclaimed is the total power returned to the pool by
	// failure- and shock-driven evictions.
	BudgetReclaimed units.Power
	// PoolLeft is the shock-adjusted uncommitted power at the end of the
	// run: the free pool plus any power still held back by unexpired
	// budget shocks. With every job complete it must equal the cluster
	// budget (up to float accumulation) — the pool-conservation
	// invariant `pbc verify` asserts.
	PoolLeft units.Power
	// MaxConservationError is the largest absolute deviation of
	// (pool + committed grants + shock-held power) from the cluster
	// budget observed at any event boundary. A non-trivial value means
	// re-admission accounting leaked or minted power.
	MaxConservationError units.Power
}

// Run executes the configured simulation.
func Run(cfg Config) (Result, error) {
	if cfg.Mode != ModeExact && cfg.Mode != ModeFast {
		return Result{}, fmt.Errorf("des: unknown mode %v", cfg.Mode)
	}
	if cfg.Sched == nil {
		return Result{}, fmt.Errorf("des: nil scheduler")
	}
	if len(cfg.Sched.Nodes) == 0 {
		return Result{}, fmt.Errorf("des: scheduler has no nodes")
	}
	if err := cfg.Arrivals.Validate(); err != nil {
		return Result{}, err
	}
	if !cfg.Arrivals.Zero() && cfg.Horizon <= 0 {
		return Result{}, fmt.Errorf("des: arrival spec %q needs a positive horizon", cfg.Arrivals)
	}
	if cfg.MaxJobs == 0 {
		cfg.MaxJobs = defaultMaxJobs
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = defaultMaxEventsExact
		if cfg.Mode == ModeFast {
			cfg.MaxEvents = defaultMaxEventsFast
		}
	}
	arrivals := generateArrivals(cfg.Arrivals, cfg.Seed, cfg.Horizon, cfg.MaxJobs)
	if err := checkJobs(cfg.Jobs, len(arrivals)); err != nil {
		return Result{}, err
	}
	l := newLifecycle(cfg, arrivals)
	return l.run()
}

// arrivalID names generated arrival i.
func arrivalID(i int) string {
	return fmt.Sprintf("a%06d", i)
}

// checkJobs rejects t=0 jobs without work, and jobs whose IDs repeat
// or repeat the name of one of the run's generated arrivals: exact mode
// keys its per-job records by ID, and both modes accept the same
// configurations.
func checkJobs(jobs []cluster.TimedJob, arrivals int) error {
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.Units <= 0 {
			return fmt.Errorf("cluster: job %q has non-positive work", j.ID)
		}
		if seen[j.ID] {
			return fmt.Errorf("des: duplicate job ID %q", j.ID)
		}
		seen[j.ID] = true
		if rest, ok := strings.CutPrefix(j.ID, "a"); ok {
			if i, err := strconv.Atoi(rest); err == nil && i >= 0 && i < arrivals && arrivalID(i) == j.ID {
				return fmt.Errorf("des: job ID %q is the name of generated arrival %d", j.ID, i)
			}
		}
	}
	return nil
}

// Trace-event kinds, one byte each, folded into the trace hash.
const (
	evArrive   = 'a'
	evStart    = 's'
	evFinish   = 'f'
	evSuspend  = 'v'
	evNodeFail = 'F'
	evNodeUp   = 'R'
	evShock    = 'S'
	evRestore  = 'r'
)

// traceHash accumulates an FNV-1a fingerprint of the event stream. Jobs
// and nodes are identified by dense indices so the engine hashes without
// allocating; -1 marks "no job"/"no node".
type traceHash struct {
	h uint64
}

const (
	fnvOffset = 0xCBF29CE484222325
	fnvPrime  = 0x100000001B3
	// fnvPrime4 is fnvPrime⁴ mod 2⁶⁴: four FNV-1a steps over zero bytes
	// (the xor is a no-op) are one multiply by it.
	fnvPrime4 = fnvPrime * fnvPrime * fnvPrime * fnvPrime % (1 << 64)
)

func newTraceHash() traceHash {
	return traceHash{h: fnvOffset}
}

// fnvBytes folds the n low bytes of v into h, least significant first.
func fnvBytes(h, v uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		h ^= v & 0xFF
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// event hashes the event's time bits, kind byte, and job and node as
// eight bytes each. Job and node are zero-extended from 32 bits, so
// their four high bytes fold into one multiply each.
func (t *traceHash) event(at float64, kind byte, job, node int32) {
	h := fnvBytes(t.h, math.Float64bits(at), 8)
	h = (h ^ uint64(kind)) * fnvPrime
	h = fnvBytes(h, uint64(uint32(job)), 4) * fnvPrime4
	t.h = fnvBytes(h, uint64(uint32(node)), 4) * fnvPrime4
}

// agg holds the streaming per-completion statistics.
type agg struct {
	completed        int
	waitSum, turnSum float64
	maxSlowdown      float64
}

// finish folds one job completion into the aggregates.
func (a *agg) finish(arrival, firstStart, end float64) {
	a.completed++
	a.waitSum += firstStart - arrival
	a.turnSum += end - arrival
	if run := end - firstStart; run > 0 {
		if s := (end - arrival) / run; s > a.maxSlowdown {
			a.maxSlowdown = s
		}
	}
}

// fill writes the aggregates into a Result.
func (a *agg) fill(res *Result) {
	res.Completed = a.completed
	if a.completed > 0 {
		res.AvgWait = a.waitSum / float64(a.completed)
		res.AvgTurnaround = a.turnSum / float64(a.completed)
	}
	res.MaxSlowdown = a.maxSlowdown
	if res.MaxSlowdown < 1 && a.completed > 0 {
		res.MaxSlowdown = 1
	}
}

package cluster

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/units"
)

// ErrStarved is wrapped by queue-run errors when waiting jobs can never
// receive a productive grant (no future completion, recovery, or budget
// restoration can unblock them). Match with errors.Is.
var ErrStarved = errors.New("cluster: starved")

// TimedJob is a job with a finite amount of work, for the event-driven
// queue simulation.
type TimedJob struct {
	Job
	// Units is the total work to execute, in the workload's work units
	// (bytes for STREAM, FLOPs for DGEMM, ...).
	Units float64
}

// SplitPolicy selects how an admitted job's budget is divided across its
// node's components.
type SplitPolicy int

// Split policies for the queue simulation.
const (
	// PolicyCoord uses COORD (Algorithm 1) — the repository default.
	PolicyCoord SplitPolicy = iota
	// PolicyEvenSplit divides the grant equally between processor and
	// memory, the application-oblivious baseline.
	PolicyEvenSplit
)

// String names the policy.
func (p SplitPolicy) String() string {
	switch p {
	case PolicyCoord:
		return "coord"
	case PolicyEvenSplit:
		return "even-split"
	default:
		return fmt.Sprintf("SplitPolicy(%d)", int(p))
	}
}

// Discipline selects the queueing order semantics.
type Discipline int

// Queue disciplines.
const (
	// DisciplineBackfill lets any waiting job start when a node and a
	// productive grant are available, even if an earlier job is still
	// blocked — power-aware backfilling.
	DisciplineBackfill Discipline = iota
	// DisciplineFIFO enforces strict queue order: when the head job
	// cannot start, nothing behind it may either.
	DisciplineFIFO
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case DisciplineBackfill:
		return "backfill"
	case DisciplineFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Event is one entry of the queue simulation's event log.
type Event struct {
	// Time is the simulation time in seconds.
	Time float64
	// Kind is "start" or "finish".
	Kind string
	// JobID and NodeID identify the affected job and node.
	JobID, NodeID string
}

// JobStat summarizes one job's execution.
type JobStat struct {
	Start, End float64
	Budget     units.Power
	Power      units.Power
	Rate       float64 // work units per second
}

// QueueResult is the outcome of an event-driven queue run.
type QueueResult struct {
	// Makespan is the completion time of the last job.
	Makespan float64
	// Events is the chronological start/finish log.
	Events []Event
	// Stats maps job IDs to their execution summaries.
	Stats map[string]JobStat
	// Energy is the total cluster energy (sum of power x runtime).
	Energy units.Energy
}

// sortedJobIDs returns the stat keys in sorted order. Every aggregate
// below iterates in this order rather than map order, so floating-point
// accumulation — and therefore replay output — is byte-for-byte
// reproducible.
func (r *QueueResult) sortedJobIDs() []string {
	ids := make([]string, 0, len(r.Stats))
	for id := range r.Stats {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// AvgWait returns the mean time jobs spent queued before starting.
func (r *QueueResult) AvgWait() float64 {
	if len(r.Stats) == 0 {
		return 0
	}
	var sum float64
	for _, id := range r.sortedJobIDs() {
		sum += r.Stats[id].Start
	}
	return sum / float64(len(r.Stats))
}

// AvgTurnaround returns the mean completion time (queue entry at t=0).
func (r *QueueResult) AvgTurnaround() float64 {
	if len(r.Stats) == 0 {
		return 0
	}
	var sum float64
	for _, id := range r.sortedJobIDs() {
		sum += r.Stats[id].End
	}
	return sum / float64(len(r.Stats))
}

// MaxSlowdown returns the worst ratio of turnaround to pure runtime
// across jobs — the fairness metric batch schedulers report.
func (r *QueueResult) MaxSlowdown() float64 {
	worst := 1.0
	for _, id := range r.sortedJobIDs() {
		st := r.Stats[id]
		run := st.End - st.Start
		if run <= 0 {
			continue
		}
		if s := st.End / run; s > worst {
			worst = s
		}
	}
	return worst
}

// RunningJob is one in-flight job of an event-driven queue run, as
// admitted by AdmitWaiting. The queue engine itself lives in
// internal/des, which drives this progress state.
type RunningJob struct {
	Job       TimedJob
	Node      Node
	Remaining float64
	Rate      float64
	Power     units.Power
	Budget    units.Power
	Started   float64
	// FirstStart is the job's first admission time, preserved across
	// fault-driven re-admissions so wait-time stats stay meaningful.
	FirstStart float64
}

// Admission is one job's admission onto a node: the grant it holds for
// its lifetime, and the power it draws and the rate it works at under
// that grant.
type Admission struct {
	Budget units.Power
	Power  units.Power
	Rate   float64
}

// Admit decides the admission of job j onto node from a pool of the
// given size, by the paper's rules: admit only at the productive
// threshold, grant at most the maximum demand, and return COORD's
// surplus to the pool. ok is false when the job cannot start there.
// Admit touches no metrics; AdmitWaiting is its queue-order loop.
//
// sat is the pool at and above which the decision no longer depends on
// the pool: max(threshold, maxTotal), since a pool that covers the
// threshold is granted min(pool, maxTotal). On a node of the wrong
// kind the job never starts and sat is 0.
func (s *Scheduler) Admit(node Node, j Job, pool units.Power, policy SplitPolicy) (a Admission, sat units.Power, ok bool, err error) {
	if node.Platform.Kind != j.Workload.Kind {
		return Admission{}, 0, false, nil
	}
	threshold, maxTotal, err := s.envelope(node, j.Workload)
	if err != nil {
		return Admission{}, 0, false, err
	}
	sat = max(threshold, maxTotal)
	if pool < threshold {
		return Admission{}, sat, false, nil
	}
	grant := pool
	if grant > maxTotal {
		grant = maxTotal
	}
	var alloc core.Allocation
	var surplus units.Power
	switch policy {
	case PolicyCoord:
		alloc, surplus, ok, err = s.split(node, j.Workload, grant)
		if err != nil || !ok {
			return Admission{}, sat, false, err
		}
	case PolicyEvenSplit:
		if node.Platform.Kind != hw.KindCPU {
			return Admission{}, sat, false, fmt.Errorf("cluster: even-split policy supports CPU nodes only")
		}
		prof, err := profile.ProfileCPU(node.Platform, j.Workload)
		if err != nil {
			return Admission{}, sat, false, err
		}
		d := coord.EvenSplit(prof, grant)
		if d.Status == coord.StatusTooSmall {
			return Admission{}, sat, false, nil
		}
		alloc = d.Alloc
	default:
		return Admission{}, sat, false, fmt.Errorf("cluster: unknown split policy %v", policy)
	}
	if surplus > 0 {
		grant -= surplus
	}
	w := j.Workload
	simRes, err := s.simulate(node, &w, alloc)
	if err != nil {
		return Admission{}, sat, false, err
	}
	rate := simRes.UnitRate.OpsPerSecond()
	if rate <= 0 {
		return Admission{}, sat, false, fmt.Errorf("cluster: job %q makes no progress", j.ID)
	}
	return Admission{Budget: grant, Power: simRes.TotalPower, Rate: rate}, sat, true, nil
}

// AdmitWaiting starts every waiting job that can receive a productive
// grant on a free node, in queue order, and returns the updated
// scheduler state. Each job is decided by Admit, so the paper's
// admission rules live in one place for both internal/des engines.
//
// freeNodes must be a slice the caller owns: an admitted job's node is
// removed in place, order preserved (the head by reslicing), so the
// returned free list reuses freeNodes' backing array and the caller
// must carry on with the returned slice, not the one it passed in.
func (s *Scheduler) AdmitWaiting(res *QueueResult, active []*RunningJob, waiting []TimedJob,
	freeNodes []Node, pool units.Power, now float64,
	policy SplitPolicy, disc Discipline) ([]*RunningJob, []TimedJob, []Node, units.Power, error) {

	var still []TimedJob
	blocked := false
	started := len(active)
	for _, j := range waiting {
		if blocked && disc == DisciplineFIFO {
			still = append(still, j)
			continue
		}
		ni := findNode(freeNodes, j.Workload.Kind)
		if ni < 0 {
			still = append(still, j)
			blocked = true
			continue
		}
		node := freeNodes[ni]
		a, _, ok, err := s.Admit(node, j.Job, pool, policy)
		if err != nil {
			return active, waiting, freeNodes, pool, err
		}
		if !ok {
			still = append(still, j)
			blocked = true
			continue
		}
		pool -= a.Budget
		if ni == 0 {
			freeNodes = freeNodes[1:]
		} else {
			freeNodes = append(freeNodes[:ni], freeNodes[ni+1:]...)
		}
		active = append(active, &RunningJob{
			Job: j, Node: node, Remaining: j.Units,
			Rate: a.Rate, Power: a.Power, Budget: a.Budget,
			Started: now, FirstStart: now,
		})
		res.Events = append(res.Events, Event{Time: now, Kind: "start", JobID: j.ID, NodeID: node.ID})
	}
	ObserveAdmissionPass(len(active)-started, len(still), len(active))
	return active, still, freeNodes, pool, nil
}

package cluster

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/units"
)

// ErrStarved is wrapped by queue-run errors when waiting jobs can never
// receive a productive grant (no future completion, recovery, or budget
// restoration can unblock them). Match with errors.Is.
var ErrStarved = errors.New("cluster: starved")

// ErrEvenSplitGPU is the error of placing a job on a GPU node under
// PolicyEvenSplit, which splits CPU nodes only. Match with errors.Is.
var ErrEvenSplitGPU = errors.New("cluster: even-split policy supports CPU nodes only")

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
	// Kind is "start", "finish", "suspend", "fail" or "recover".
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

// Admission is one job's admission onto a node: the grant it holds for
// its lifetime, and the power it draws and the rate it works at under
// that grant.
type Admission struct {
	Budget units.Power
	Power  units.Power
	Rate   float64
}

// Admit decides the admission of job j onto node from a pool of the
// given size through the admission core Schedule runs too (see admit).
// ok is false when the job cannot start there. The answer depends on
// the node's platform, the job's workload, the pool and the policy
// alone. Admit touches no metrics; internal/des caches its answers in
// its one admission pass.
//
// sat is the pool at and above which the decision no longer depends on
// the pool. On a node of the wrong kind the job never starts and sat
// is 0.
func (s *Scheduler) Admit(node Node, j Job, pool units.Power, policy SplitPolicy) (a Admission, sat units.Power, ok bool, err error) {
	if node.Platform.Kind != j.Workload.Kind {
		return Admission{}, 0, false, nil
	}
	p, budget, sat, err := s.admit(node, j.Workload, pool, policy)
	if err != nil || !p.ok {
		return Admission{}, sat, false, err
	}
	rate := p.rate.OpsPerSecond()
	if rate <= 0 {
		return Admission{}, sat, false, fmt.Errorf("cluster: workload %q makes no progress on node %q", j.Workload.Name, node.ID)
	}
	return Admission{Budget: budget, Power: p.power, Rate: rate}, sat, true, nil
}

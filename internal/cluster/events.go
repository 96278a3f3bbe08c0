package cluster

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/hw"
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

// AdmitWaiting starts every waiting job that can receive a productive
// grant on a free node, in queue order, and returns the updated
// scheduler state. Both internal/des engines admit through it, so the
// paper's admission rules live in one place: admit only at the
// productive threshold, grant at most the maximum demand, and reclaim
// COORD's surplus into the pool.
//
// freeNodes must be a slice the caller owns: an admitted job's node is
// removed in place, order preserved, so the returned free list reuses
// freeNodes' backing array and the caller must carry on with the
// returned slice, not the one it passed in.
func (s *Scheduler) AdmitWaiting(res *QueueResult, active []*RunningJob, waiting []TimedJob,
	freeNodes []Node, pool units.Power, now float64,
	policy SplitPolicy, disc Discipline) ([]*RunningJob, []TimedJob, []Node, units.Power, error) {

	var still []TimedJob
	blocked := false
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
		threshold, maxTotal, err := s.envelope(node, j.Workload)
		if err != nil {
			return active, waiting, freeNodes, pool, err
		}
		if pool < threshold {
			still = append(still, j)
			blocked = true
			continue
		}
		grant := pool
		if grant > maxTotal {
			grant = maxTotal
		}
		var alloc core.Allocation
		var surplus units.Power
		switch policy {
		case PolicyCoord:
			var ok bool
			alloc, surplus, ok, err = s.split(node, j.Workload, grant)
			if err != nil {
				return active, waiting, freeNodes, pool, err
			}
			if !ok {
				still = append(still, j)
				blocked = true
				continue
			}
		case PolicyEvenSplit:
			if node.Platform.Kind != hw.KindCPU {
				return active, waiting, freeNodes, pool,
					fmt.Errorf("cluster: even-split policy supports CPU nodes only")
			}
			prof, err := s.profileFor(node.Platform, j.Workload)
			if err != nil {
				return active, waiting, freeNodes, pool, err
			}
			d := coord.EvenSplit(prof, grant)
			if d.Status == coord.StatusTooSmall {
				still = append(still, j)
				blocked = true
				continue
			}
			alloc = d.Alloc
		default:
			return active, waiting, freeNodes, pool,
				fmt.Errorf("cluster: unknown split policy %v", policy)
		}
		if surplus > 0 {
			grant -= surplus
		}
		w := j.Workload
		simRes, err := s.simulate(node, &w, alloc)
		if err != nil {
			return active, waiting, freeNodes, pool, err
		}
		rate := simRes.UnitRate.OpsPerSecond()
		if rate <= 0 {
			return active, waiting, freeNodes, pool,
				fmt.Errorf("cluster: job %q makes no progress", j.ID)
		}
		pool -= grant
		freeNodes = append(freeNodes[:ni], freeNodes[ni+1:]...)
		active = append(active, &RunningJob{
			Job: j, Node: node, Remaining: j.Units,
			Rate: rate, Power: simRes.TotalPower, Budget: grant,
			Started: now, FirstStart: now,
		})
		res.Events = append(res.Events, Event{Time: now, Kind: "start", JobID: j.ID, NodeID: node.ID})
		mAdmissions.Inc()
	}
	mQueueDepth.Set(float64(len(still)))
	mActiveJobs.Set(float64(len(active)))
	return active, still, freeNodes, pool, nil
}

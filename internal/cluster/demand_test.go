package cluster_test

// Demand response, a cluster budget the facility lowers and raises on a
// schedule, runs in internal/des: each step of the schedule is a
// budget-shock edge, so a drop evicts the latest-started jobs and
// re-queues them at the head, and Admit re-admits them from the pool of
// that moment.

import (
	"errors"
	"reflect"
	"testing"

	. "repro/internal/cluster"
	"repro/internal/des"
)

// demandRun runs t=0 jobs through des under a budget schedule, with
// COORD and backfill.
func demandRun(s *Scheduler, jobs []TimedJob, phases []des.BudgetPhase, mode des.Mode) (des.Result, error) {
	return des.Run(des.Config{
		Sched: s, Jobs: jobs, Policy: PolicyCoord, Discipline: DisciplineBackfill,
		BudgetPhases: phases, Mode: mode,
	})
}

// checkDrained requires every job done and the pool conserved: no
// event boundary strays from the budget by more than 1e-9 of it, and
// the drained pool is the whole budget again.
func checkDrained(t *testing.T, s *Scheduler, res des.Result, jobs int) {
	t.Helper()
	if res.Completed != jobs || len(res.Queue.Stats) != jobs {
		t.Fatalf("completed %d (%d stats) of %d", res.Completed, len(res.Queue.Stats), jobs)
	}
	if f := res.Faults; f.MaxConservationError > 1e-9*s.Budget || f.PoolLeft != s.Budget {
		t.Errorf("pool not conserved: max error %v, pool left %v of %v", f.MaxConservationError, f.PoolLeft, s.Budget)
	}
}

func TestDemandResponseShedsOnBudgetDrop(t *testing.T) {
	s, err := NewScheduler(500, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "long1", "dgemm", 3e14),
		timedJob(t, "long2", "stream", 2e13),
	}
	// Budget drops to 240 W after 100 s, recovers at 400 s.
	phases := []des.BudgetPhase{
		{Until: 100, Budget: 500},
		{Until: 400, Budget: 240},
		{Until: 1e12, Budget: 500},
	}
	res, err := demandRun(s, jobs, phases, des.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	checkDrained(t, s, res, 2)
	if res.Faults.Shocks != 1 {
		t.Errorf("%d budget drops counted, want 1", res.Faults.Shocks)
	}
	if res.Faults.Readmissions == 0 {
		t.Error("the budget drop should suspend a job")
	}
	// Only the drop sheds, so every suspension happens at its instant.
	suspends := 0
	for _, e := range res.Queue.Events {
		if e.Kind == "suspend" {
			suspends++
			if e.Time != 100 {
				t.Errorf("suspend at %.1f, expected at the drop (100 s)", e.Time)
			}
		}
	}
	if suspends != res.Faults.Readmissions {
		t.Errorf("%d suspend events for %d re-admissions", suspends, res.Faults.Readmissions)
	}
	// The evicted job keeps no grant: once long2 finishes it is
	// re-admitted inside the low window, at a grant recomputed from
	// that window's pool.
	var restarts []float64
	for _, e := range res.Queue.Events {
		if e.Kind == "start" && e.JobID == "long1" && e.Time > 0 {
			restarts = append(restarts, e.Time)
		}
	}
	if st := res.Queue.Stats["long1"]; len(restarts) != 1 || restarts[0] >= 400 || st.Budget > 240 {
		t.Errorf("long1 restarted at %v under a %v grant; want one restart before 400 s within 240 W", restarts, st.Budget)
	}
}

func TestDemandResponseSuspendedWorkResumes(t *testing.T) {
	// A job suspended by the drop is re-queued with its remaining work
	// and finishes exactly once.
	s, err := NewScheduler(460, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "a", "dgemm", 1e14),
		timedJob(t, "b", "mg", 1e13),
	}
	phases := []des.BudgetPhase{
		{Until: 50, Budget: 460},
		{Until: 200, Budget: 230},
		{Until: 1e12, Budget: 460},
	}
	res, err := demandRun(s, jobs, phases, des.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	checkDrained(t, s, res, 2)
	if res.Faults.Readmissions == 0 {
		t.Fatal("the budget drop suspended no job")
	}
	// Events for a suspended job: start, suspend, start, finish.
	counts := map[string]int{}
	for _, e := range res.Queue.Events {
		counts[e.JobID+"/"+e.Kind]++
	}
	for _, id := range []string{"a", "b"} {
		if counts[id+"/finish"] != 1 {
			t.Errorf("job %s finished %d times", id, counts[id+"/finish"])
		}
		if counts[id+"/start"] != counts[id+"/suspend"]+1 {
			t.Errorf("job %s: %d starts vs %d suspends", id,
				counts[id+"/start"], counts[id+"/suspend"])
		}
		if st := res.Queue.Stats[id]; counts[id+"/suspend"] > 0 && st.End <= 200 {
			t.Errorf("suspended job %s finished at %.1f, before the budget recovered", id, st.End)
		}
	}
}

func TestDemandResponseValidation(t *testing.T) {
	s, err := NewScheduler(400, nodes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	j := []TimedJob{timedJob(t, "j", "stream", 1e12)}
	// No schedule is the scheduler's budget throughout.
	steady, err := demandRun(s, j, []des.BudgetPhase{{Until: 1e12, Budget: 400}}, des.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	for _, phases := range [][]des.BudgetPhase{nil, {}} {
		if res, err := demandRun(s, j, phases, des.ModeExact); err != nil || !reflect.DeepEqual(res, steady) {
			t.Errorf("schedule %#v: %+v, %v; want the steady run %+v", phases, res, err, steady)
		}
	}
	bad := []des.BudgetPhase{{Until: 100, Budget: 400}, {Until: 50, Budget: 300}}
	if _, err := demandRun(s, j, bad, des.ModeExact); !errors.Is(err, des.ErrBudgetPhase) {
		t.Errorf("unordered phases: %v, want des.ErrBudgetPhase", err)
	}
	if _, err := demandRun(s, []TimedJob{timedJob(t, "z", "stream", -1)},
		[]des.BudgetPhase{{Until: 1e12, Budget: 400}}, des.ModeExact); err == nil {
		t.Error("negative work accepted")
	}
	// A final budget below every threshold starves and must error.
	if _, err := demandRun(s, j, []des.BudgetPhase{{Until: 1e12, Budget: 100}}, des.ModeExact); !errors.Is(err, ErrStarved) {
		t.Errorf("impossible final budget: %v, want ErrStarved", err)
	}
}

func TestDemandResponseEnergyAccounting(t *testing.T) {
	s, err := NewScheduler(500, nodes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{timedJob(t, "j", "stream", 5e12)}
	res, err := demandRun(s, jobs, []des.BudgetPhase{{Until: 1e12, Budget: 500}}, des.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	checkDrained(t, s, res, 1)
	st := res.Queue.Stats["j"]
	if want := st.Power.Watts() * (st.End - st.Start); res.Energy.Joules() != want {
		t.Errorf("energy %v, want %v", res.Energy.Joules(), want)
	}
}

func TestDemandResponseSteadyBudgetMatchesQueue(t *testing.T) {
	// A schedule that never moves the budget must reproduce the queue
	// run field for field, trace hash included, in both modes.
	s, err := NewScheduler(500, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "j1", "dgemm", 5e13),
		timedJob(t, "j2", "stream", 3e12),
		timedJob(t, "j3", "mg", 3e12),
	}
	for _, mode := range []des.Mode{des.ModeExact, des.ModeFast} {
		queue, err := demandRun(s, jobs, nil, mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, phases := range [][]des.BudgetPhase{
			{{Until: 1e12, Budget: 500}},
			{{Until: 10, Budget: 500}, {Until: 1e12, Budget: 500}},
		} {
			dr, err := demandRun(s, jobs, phases, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dr, queue) {
				t.Errorf("%v, schedule %v:\n got %+v\nwant %+v", mode, phases, dr, queue)
			}
		}
		if queue.Faults.Readmissions != 0 || queue.Faults.Shocks != 0 {
			t.Errorf("%v: steady budget caused %d suspensions, %d drops", mode, queue.Faults.Readmissions, queue.Faults.Shocks)
		}
	}
}

package cluster_test

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	. "repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestRunQueueFaultyNoFaultsMatchesBaseline: an injector whose spec
// disturbs nothing leaves the run identical to one without an injector.
func TestRunQueueFaultyNoFaultsMatchesBaseline(t *testing.T) {
	mk := func() (*Scheduler, []TimedJob) {
		s, err := NewScheduler(500, nodes(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		return s, []TimedJob{
			timedJob(t, "j1", "stream", 5e12),
			timedJob(t, "j2", "dgemm", 1e14),
			timedJob(t, "j3", "mg", 5e12),
		}
	}
	s1, q1 := mk()
	base, err := runQueue(s1, q1, PolicyCoord, DisciplineBackfill)
	if err != nil {
		t.Fatal(err)
	}
	s2, q2 := mk()
	faulty, err := runFaulty(s2, q2, faults.NewInjector(faults.Spec{}, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Makespan != base.Makespan {
		t.Fatalf("fault-free faulty engine makespan %v != baseline %v", faulty.Makespan, base.Makespan)
	}
	if len(faulty.Stats) != len(base.Stats) {
		t.Fatalf("stats count %d != %d", len(faulty.Stats), len(base.Stats))
	}
	for id, st := range base.Stats {
		if faulty.Stats[id] != st {
			t.Fatalf("job %s stats diverge: %+v vs %+v", id, faulty.Stats[id], st)
		}
	}
	// Fault event counters must all be zero; the accounting fields the
	// conservation audit added report a clean drain instead.
	want := des.FaultSummary{PoolLeft: s2.Budget}
	if faulty.Faults != want {
		t.Fatalf("fault-free run reported faults: %+v, want %+v", faulty.Faults, want)
	}
}

func TestRunQueueFaultyNodeFailureReadmitsJobs(t *testing.T) {
	s, err := NewScheduler(500, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "j1", "stream", 5e12),
		timedJob(t, "j2", "dgemm", 1e14),
		timedJob(t, "j3", "mg", 5e12),
		timedJob(t, "j4", "ep", 2e13),
	}
	// MTBF far below the makespan so failures certainly strike; repairs
	// arrive so the run can finish even if both nodes go down.
	spec, err := faults.ParseSpec("node.mtbf=60,node.mttr=30")
	if err != nil {
		t.Fatal(err)
	}
	log := &trace.EventLog{}
	res, err := runFaulty(s, jobs, faults.NewInjector(spec, 7), log)
	if err != nil {
		t.Fatal(err)
	}
	// Every job still completes.
	if len(res.Stats) != len(jobs) {
		t.Fatalf("completed %d of %d jobs", len(res.Stats), len(jobs))
	}
	if res.Faults.NodeFailures == 0 {
		t.Fatal("no node failures fired — test proves nothing")
	}
	if res.Faults.Readmissions == 0 {
		t.Fatal("node failures struck but no job was re-admitted")
	}
	if res.Faults.BudgetReclaimed <= 0 {
		t.Fatal("evictions reclaimed no budget")
	}
	// The transition log tells the story: every eviction pairs a
	// budget-reclaim with a job-readmit.
	if log.Count("node-fail") != res.Faults.NodeFailures {
		t.Fatalf("log has %d node-fail records for %d failures", log.Count("node-fail"), res.Faults.NodeFailures)
	}
	if log.Count("job-readmit") != res.Faults.Readmissions {
		t.Fatalf("log has %d job-readmit records for %d readmissions", log.Count("job-readmit"), res.Faults.Readmissions)
	}
	if log.Count("budget-reclaim") != res.Faults.Readmissions {
		t.Fatalf("log has %d budget-reclaim records for %d readmissions", log.Count("budget-reclaim"), res.Faults.Readmissions)
	}
	// Suspended jobs show start → suspend → start → ... → finish, and
	// each job's event sequence is well-formed.
	verifyEventGrammar(t, res.Events)
	// Re-admitted jobs keep their first start time in the stats.
	for id, st := range res.Stats {
		if st.End <= st.Start {
			t.Fatalf("job %s has end %v <= start %v", id, st.End, st.Start)
		}
	}
}

// verifyEventGrammar checks per-job event sequences: start before
// suspend/finish, exactly one finish, no activity after it.
func verifyEventGrammar(t *testing.T, events []Event) {
	t.Helper()
	state := map[string]string{} // job -> last event kind
	for _, e := range events {
		if e.JobID == "" {
			continue // node fail/recover events
		}
		prev := state[e.JobID]
		switch e.Kind {
		case "start":
			if prev == "start" {
				t.Fatalf("job %s started twice without suspend/finish", e.JobID)
			}
			if prev == "finish" {
				t.Fatalf("job %s restarted after finishing", e.JobID)
			}
		case "suspend", "finish":
			if prev != "start" {
				t.Fatalf("job %s got %s while %q", e.JobID, e.Kind, prev)
			}
		}
		state[e.JobID] = e.Kind
	}
	for job, last := range state {
		if last != "finish" {
			t.Fatalf("job %s ended in state %q", job, last)
		}
	}
}

func TestRunQueueFaultyDeterministicReplay(t *testing.T) {
	spec, err := faults.ParseSpec("node.mtbf=80,node.mttr=40,shock.mtbs=120,shock.frac=0.3,shock.len=25")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (faultyRun, string) {
		s, err := NewScheduler(500, nodes(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		jobs := []TimedJob{
			timedJob(t, "j1", "stream", 5e12),
			timedJob(t, "j2", "dgemm", 1e14),
			timedJob(t, "j3", "mg", 5e12),
			timedJob(t, "j4", "ep", 2e13),
			timedJob(t, "j5", "stream", 3e12),
		}
		log := &trace.EventLog{}
		res, err := runFaulty(s, jobs, faults.NewInjector(spec, 21), log)
		if err != nil {
			t.Fatal(err)
		}
		return res, log.String()
	}
	r1, l1 := run()
	r2, l2 := run()
	if l1 != l2 {
		t.Fatalf("transition logs diverged:\n%s\nvs\n%s", l1, l2)
	}
	if r1.Makespan != r2.Makespan || r1.Energy != r2.Energy || r1.Faults != r2.Faults {
		t.Fatalf("results diverged: %+v vs %+v", r1, r2)
	}
	if len(r1.Events) != len(r2.Events) {
		t.Fatalf("event counts diverged: %d vs %d", len(r1.Events), len(r2.Events))
	}
	for i := range r1.Events {
		if r1.Events[i] != r2.Events[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, r1.Events[i], r2.Events[i])
		}
	}
	// Aggregates are byte-for-byte identical too (sorted-key accumulation).
	f1 := fmt.Sprintf("%.17g %.17g %.17g", r1.AvgWait(), r1.AvgTurnaround(), r1.MaxSlowdown())
	f2 := fmt.Sprintf("%.17g %.17g %.17g", r2.AvgWait(), r2.AvgTurnaround(), r2.MaxSlowdown())
	if f1 != f2 {
		t.Fatalf("aggregates diverged: %s vs %s", f1, f2)
	}
}

func TestRunQueueFaultyBudgetShocksEvict(t *testing.T) {
	s, err := NewScheduler(500, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "j1", "stream", 5e12),
		timedJob(t, "j2", "dgemm", 1e14),
		timedJob(t, "j3", "mg", 5e12),
	}
	// Frequent deep shocks: losing 60% of a 500 W pool forces evictions
	// whenever both nodes hold grants.
	spec, err := faults.ParseSpec("shock.mtbs=40,shock.frac=0.6,shock.len=20")
	if err != nil {
		t.Fatal(err)
	}
	log := &trace.EventLog{}
	res, err := runFaulty(s, jobs, faults.NewInjector(spec, 5), log)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != len(jobs) {
		t.Fatalf("completed %d of %d jobs", len(res.Stats), len(jobs))
	}
	if res.Faults.Shocks == 0 {
		t.Fatal("no shocks fired — test proves nothing")
	}
	verifyEventGrammar(t, res.Events)
	if strings.Count(log.String(), "budget-shock") != res.Faults.Shocks {
		t.Fatalf("log shock count mismatch")
	}
}

func TestRunQueueFaultyStarvationWrapsErrStarved(t *testing.T) {
	// Budget below every productive threshold: starved immediately.
	s, err := NewScheduler(150, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{timedJob(t, "j", "mg", 1e12)}
	_, err = runFaulty(s, jobs, nil, nil)
	if err == nil {
		t.Fatal("impossible budget accepted")
	}
	if !errors.Is(err, ErrStarved) {
		t.Fatalf("error %v does not wrap ErrStarved", err)
	}
	// The fault-free engine reports the same sentinel.
	s2, _ := NewScheduler(150, nodes(t, 2))
	_, err = runQueue(s2, jobs, PolicyCoord, DisciplineBackfill)
	if !errors.Is(err, ErrStarved) {
		t.Fatalf("baseline error %v does not wrap ErrStarved", err)
	}
}

func TestRunQueueFaultyPermanentFailureStillFinishesOnSurvivors(t *testing.T) {
	// No repair (mttr=0): failed nodes never return. With several nodes
	// and a long MTBF relative to job length, survivors finish the queue.
	s, err := NewScheduler(900, nodes(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "j1", "stream", 3e12),
		timedJob(t, "j2", "mg", 3e12),
		timedJob(t, "j3", "ep", 1e13),
	}
	spec, err := faults.ParseSpec("node.mtbf=120")
	if err != nil {
		t.Fatal(err)
	}
	log := &trace.EventLog{}
	res, err := runFaulty(s, jobs, faults.NewInjector(spec, 2), log)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != len(jobs) {
		t.Fatalf("completed %d of %d jobs", len(res.Stats), len(jobs))
	}
	if res.Faults.NodeRecoveries != 0 {
		t.Fatalf("mttr=0 but %d recoveries", res.Faults.NodeRecoveries)
	}
	verifyEventGrammar(t, res.Events)
}

func TestRunQueueFaultyEventsSortedByTime(t *testing.T) {
	s, err := NewScheduler(500, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "j1", "stream", 5e12),
		timedJob(t, "j2", "dgemm", 1e14),
	}
	spec, _ := faults.ParseSpec("node.mtbf=90,node.mttr=30")
	res, err := runFaulty(s, jobs, faults.NewInjector(spec, 13), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(res.Events, func(i, j int) bool { return res.Events[i].Time < res.Events[j].Time }) {
		t.Fatal("event log not time-sorted")
	}
}

// TestRunQueueFaultyPoolConservation pins the fault-path accounting the
// audit added: under a shock- and failure-heavy schedule that evicts
// and re-admits jobs repeatedly, the identity pool + committed grants +
// shock-held power == cluster budget holds at every event boundary, and
// the whole budget is back in the pool once the queue drains.
func TestRunQueueFaultyPoolConservation(t *testing.T) {
	cpu, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(450, []Node{
		{ID: "n1", Platform: cpu},
		{ID: "n2", Platform: cpu},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := faults.ParseSpec("node.mtbf=30,node.mttr=10,shock.mtbs=25,shock.frac=0.5,shock.len=10")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		{Job: Job{ID: "a", Workload: mustWorkload(t, "stream")}, Units: 5e11},
		{Job: Job{ID: "b", Workload: mustWorkload(t, "dgemm")}, Units: 3e11},
		{Job: Job{ID: "c", Workload: mustWorkload(t, "bt")}, Units: 4e11},
	}
	res, err := runFaulty(s, jobs, faults.NewInjector(spec, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Readmissions == 0 {
		t.Error("spec produced no readmissions; the conservation check exercised nothing")
	}
	if res.Faults.MaxConservationError > 1e-6 {
		t.Errorf("MaxConservationError = %.3g W, want <= 1e-6 (power leaked or minted)",
			res.Faults.MaxConservationError.Watts())
	}
	if dev := math.Abs((res.Faults.PoolLeft - s.Budget).Watts()); dev > 1e-6 {
		t.Errorf("final pool %v != budget %v (Δ %.3g W)", res.Faults.PoolLeft, s.Budget, dev)
	}
	var _ units.Power = res.Faults.BudgetReclaimed
}

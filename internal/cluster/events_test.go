package cluster_test

// The queue tests run through internal/des, which imports this package,
// so they live in the external test package and dot-import cluster.

import (
	"sync"
	"testing"

	. "repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

func nodes(t *testing.T, n int) []Node {
	t.Helper()
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	var out []Node
	for i := 0; i < n; i++ {
		out = append(out, Node{ID: string(rune('a'+i)) + "-node", Platform: p})
	}
	return out
}

func mustWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func timedJob(t *testing.T, id, wl string, work float64) TimedJob {
	t.Helper()
	return TimedJob{Job: Job{ID: id, Workload: mustWorkload(t, wl)}, Units: work}
}

// runQueue runs t=0 jobs to completion through des exact mode without
// faults.
func runQueue(s *Scheduler, jobs []TimedJob, policy SplitPolicy, disc Discipline) (QueueResult, error) {
	res, err := des.Run(des.Config{Sched: s, Jobs: jobs, Policy: policy, Discipline: disc})
	if err != nil {
		return QueueResult{}, err
	}
	return *res.Queue, nil
}

// faultyRun is a queue run's per-job result with its fault accounting.
type faultyRun struct {
	QueueResult
	Faults des.FaultSummary
}

// runFaulty runs t=0 jobs through des exact mode under COORD and
// backfill while inj disturbs the cluster, recording into log.
func runFaulty(s *Scheduler, jobs []TimedJob, inj *faults.Injector, log *trace.EventLog) (faultyRun, error) {
	res, err := des.Run(des.Config{
		Sched: s, Jobs: jobs,
		Policy: PolicyCoord, Discipline: DisciplineBackfill,
		Injector: inj, Log: log,
	})
	if err != nil {
		return faultyRun{}, err
	}
	return faultyRun{QueueResult: *res.Queue, Faults: res.Faults}, nil
}

func TestRunQueueCompletesAllJobs(t *testing.T) {
	s, err := NewScheduler(500, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "j1", "stream", 5e12), // 5 TB of triad traffic
		timedJob(t, "j2", "dgemm", 1e14),  // 100 TFLOPs
		timedJob(t, "j3", "mg", 5e12),
		timedJob(t, "j4", "ep", 2e13),
	}
	res, err := runQueue(s, jobs, PolicyCoord, DisciplineBackfill)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("completed %d of 4 jobs", len(res.Stats))
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if res.Energy <= 0 {
		t.Error("zero energy")
	}
	// Events pair up: one start and one finish per job, in time order.
	starts, finishes := 0, 0
	prev := -1.0
	for _, e := range res.Events {
		if e.Time < prev {
			t.Error("events out of order")
		}
		prev = e.Time
		switch e.Kind {
		case "start":
			starts++
		case "finish":
			finishes++
		}
	}
	if starts != 4 || finishes != 4 {
		t.Errorf("events: %d starts, %d finishes", starts, finishes)
	}
	// Every job's stats are self-consistent.
	for id, st := range res.Stats {
		if st.End <= st.Start {
			t.Errorf("%s: end before start", id)
		}
		if st.Rate <= 0 || st.Power <= 0 || st.Budget <= 0 {
			t.Errorf("%s: bad stats %+v", id, st)
		}
	}
}

func TestRunQueueSerializesWhenPoolIsTight(t *testing.T) {
	// 260 W can productively run roughly one job at a time: completions
	// must release power for waiting jobs and the makespan must exceed
	// any single job's runtime.
	s, err := NewScheduler(260, nodes(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "a", "dgemm", 5e13),
		timedJob(t, "b", "stream", 2e12),
		timedJob(t, "c", "ep", 1e13),
	}
	res, err := runQueue(s, jobs, PolicyCoord, DisciplineBackfill)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 3 {
		t.Fatalf("completed %d of 3", len(res.Stats))
	}
	// At least one job had to wait: its start time is after time zero.
	waited := 0
	for _, st := range res.Stats {
		if st.Start > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Error("tight pool should force some job to wait")
	}
}

func TestRunQueueCoordBeatsEvenSplit(t *testing.T) {
	// The same queue under the same facility budget: COORD's splits give
	// each job more performance per granted watt, so the makespan must
	// not be worse than the even-split policy's (and should be better).
	mk := func() (*Scheduler, []TimedJob) {
		s, err := NewScheduler(450, nodes(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		return s, []TimedJob{
			timedJob(t, "j1", "dgemm", 5e13),
			timedJob(t, "j2", "mg", 4e12),
			timedJob(t, "j3", "stream", 4e12),
			timedJob(t, "j4", "cg", 1.5e12),
		}
	}
	s1, q1 := mk()
	coordRes, err := runQueue(s1, q1, PolicyCoord, DisciplineBackfill)
	if err != nil {
		t.Fatal(err)
	}
	s2, q2 := mk()
	evenRes, err := runQueue(s2, q2, PolicyEvenSplit, DisciplineBackfill)
	if err != nil {
		t.Fatal(err)
	}
	if coordRes.Makespan > evenRes.Makespan*1.001 {
		t.Errorf("COORD makespan %.1f s worse than even-split %.1f s",
			coordRes.Makespan, evenRes.Makespan)
	}
	if coordRes.Makespan > evenRes.Makespan*0.98 {
		t.Logf("note: COORD %.1f s vs even-split %.1f s (small margin)",
			coordRes.Makespan, evenRes.Makespan)
	}
}

func TestRunQueueRejectsImpossibleBudget(t *testing.T) {
	s, err := NewScheduler(150, nodes(t, 2)) // below every productive threshold
	if err != nil {
		t.Fatal(err)
	}
	_, err = runQueue(s, []TimedJob{timedJob(t, "j", "mg", 1e12)}, PolicyCoord, DisciplineBackfill)
	if err == nil {
		t.Error("impossible budget accepted")
	}
}

func TestRunQueueValidatesWork(t *testing.T) {
	s, err := NewScheduler(400, nodes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = runQueue(s, []TimedJob{timedJob(t, "j", "stream", 0)}, PolicyCoord, DisciplineBackfill)
	if err == nil {
		t.Error("zero work accepted")
	}
	_, err = runQueue(s, []TimedJob{timedJob(t, "j", "stream", 1e12)}, SplitPolicy(99), DisciplineBackfill)
	if err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunQueuePowerNeverExceedsBudget(t *testing.T) {
	s, err := NewScheduler(420, nodes(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "j1", "stream", 3e12),
		timedJob(t, "j2", "sra", 2e9),
		timedJob(t, "j3", "bt", 2e13),
	}
	res, err := runQueue(s, jobs, PolicyCoord, DisciplineBackfill)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct concurrent power at each event boundary from the stats.
	for _, e := range res.Events {
		var inUse units.Power
		for _, st := range res.Stats {
			if st.Start <= e.Time && e.Time < st.End {
				inUse += st.Budget
			}
		}
		if inUse > s.Budget+0.01 {
			t.Errorf("at t=%.1f: %v granted exceeds %v budget", e.Time, inUse, s.Budget)
		}
	}
}

func TestSplitPolicyString(t *testing.T) {
	if PolicyCoord.String() != "coord" || PolicyEvenSplit.String() != "even-split" {
		t.Error("policy names")
	}
	if SplitPolicy(9).String() == "" {
		t.Error("unknown policy should format")
	}
}

func TestBackfillBeatsFIFO(t *testing.T) {
	// Head-of-line blocking: after the first job takes its full demand,
	// the leftover power sits between the small job's threshold and the
	// blocked head job's threshold. Backfill lets the small job through;
	// FIFO makes it wait. The budget is derived from the profiles so the
	// window is exact.
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	dgemmProf, err := profile.ProfileCPU(p, mustWorkload(t, "dgemm"))
	if err != nil {
		t.Fatal(err)
	}
	mgProf, err := profile.ProfileCPU(p, mustWorkload(t, "mg"))
	if err != nil {
		t.Fatal(err)
	}
	epProf, err := profile.ProfileCPU(p, mustWorkload(t, "ep"))
	if err != nil {
		t.Fatal(err)
	}
	dgemmDemand := dgemmProf.Critical.CPUMax + dgemmProf.Critical.MemMax
	epThresh := epProf.Critical.ProductiveThreshold()
	mgThresh := mgProf.Critical.ProductiveThreshold()
	if epThresh >= mgThresh {
		t.Fatalf("test premise broken: ep threshold %v not below mg %v", epThresh, mgThresh)
	}
	budget := dgemmDemand + (epThresh+mgThresh)/2

	mk := func() (*Scheduler, []TimedJob) {
		s, err := NewScheduler(budget, nodes(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		return s, []TimedJob{
			timedJob(t, "big1", "dgemm", 8e13), // takes its full demand
			timedJob(t, "big2", "mg", 8e12),    // blocked head: leftover below its threshold
			timedJob(t, "small", "ep", 5e12),   // fits the leftover power
		}
	}
	s1, q1 := mk()
	backfill, err := runQueue(s1, q1, PolicyCoord, DisciplineBackfill)
	if err != nil {
		t.Fatal(err)
	}
	s2, q2 := mk()
	fifo, err := runQueue(s2, q2, PolicyCoord, DisciplineFIFO)
	if err != nil {
		t.Fatal(err)
	}
	// Both complete all jobs.
	if len(backfill.Stats) != 3 || len(fifo.Stats) != 3 {
		t.Fatalf("completions: backfill %d, fifo %d", len(backfill.Stats), len(fifo.Stats))
	}
	// FIFO preserves start order strictly.
	if fifo.Stats["small"].Start < fifo.Stats["big2"].Start {
		t.Error("FIFO let the small job jump the queue")
	}
	// Backfill must not be worse, and the small job should start earlier
	// under backfill.
	if backfill.Makespan > fifo.Makespan*1.001 {
		t.Errorf("backfill makespan %.1f worse than FIFO %.1f",
			backfill.Makespan, fifo.Makespan)
	}
	if backfill.Stats["small"].Start >= fifo.Stats["small"].Start {
		t.Errorf("backfill small start %.1f not earlier than FIFO %.1f",
			backfill.Stats["small"].Start, fifo.Stats["small"].Start)
	}
}

func TestDisciplineString(t *testing.T) {
	if DisciplineBackfill.String() != "backfill" || DisciplineFIFO.String() != "fifo" {
		t.Error("discipline names")
	}
	if Discipline(7).String() == "" {
		t.Error("unknown discipline should format")
	}
}

func TestQueueFairnessMetrics(t *testing.T) {
	s, err := NewScheduler(260, nodes(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "a", "dgemm", 5e13),
		timedJob(t, "b", "stream", 2e12),
		timedJob(t, "c", "ep", 1e13),
	}
	res, err := runQueue(s, jobs, PolicyCoord, DisciplineBackfill)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgWait() <= 0 {
		t.Error("serialized queue should have positive average wait")
	}
	if res.AvgTurnaround() < res.AvgWait() {
		t.Error("turnaround below wait")
	}
	if res.MaxSlowdown() <= 1 {
		t.Error("some job must be slowed down by queueing")
	}
	// Empty result degenerates to zeros/one.
	var empty QueueResult
	if empty.AvgWait() != 0 || empty.AvgTurnaround() != 0 || empty.MaxSlowdown() != 1 {
		t.Error("empty-result metrics")
	}
}

func TestRunQueueGPUNodes(t *testing.T) {
	xp, _ := hw.PlatformByName("titanxp")
	s, err := NewScheduler(500, []Node{{ID: "g0", Platform: xp}, {ID: "g1", Platform: xp}})
	if err != nil {
		t.Fatal(err)
	}
	sgemm, _ := workload.ByName("sgemm")
	minife, _ := workload.ByName("minife")
	jobs := []TimedJob{
		{Job: Job{ID: "a", Workload: sgemm}, Units: 1e15},
		{Job: Job{ID: "b", Workload: minife}, Units: 1e14},
	}
	res, err := runQueue(s, jobs, PolicyCoord, DisciplineBackfill)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 2 {
		t.Fatalf("completed %d of 2 GPU jobs", len(res.Stats))
	}
	// Even-split policy is CPU-only and must error on GPU nodes.
	s2, _ := NewScheduler(500, []Node{{ID: "g0", Platform: xp}})
	if _, err := runQueue(s2, jobs[:1], PolicyEvenSplit, DisciplineBackfill); err == nil {
		t.Error("even-split accepted GPU nodes")
	}
}

// TestQueueRunsConcurrent exercises the engine's shared profile memo
// through the event-driven queue engines running concurrently on one
// scheduler.
func TestQueueRunsConcurrent(t *testing.T) {
	cpu, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(400, []Node{
		{ID: "n1", Platform: cpu},
		{ID: "n2", Platform: cpu},
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		{Job: Job{ID: "a", Workload: mustWorkload(t, "stream")}, Units: 2e11},
		{Job: Job{ID: "b", Workload: mustWorkload(t, "dgemm")}, Units: 2e11},
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := runQueue(s, jobs, PolicyCoord, DisciplineBackfill); err != nil {
				t.Errorf("queue run: %v", err)
			}
		}()
	}
	wg.Wait()
}

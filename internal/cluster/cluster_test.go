package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/profile"
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
		out = append(out, Node{ID: nodeID(i), Platform: p})
	}
	return out
}

func nodeID(i int) string { return string(rune('a'+i)) + "-node" }

func job(t *testing.T, id, wl string) Job {
	t.Helper()
	w, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	return Job{ID: id, Workload: w}
}

func TestNewSchedulerValidation(t *testing.T) {
	ns := nodes(t, 2)
	if _, err := NewScheduler(0, ns); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewScheduler(500, nil); err == nil {
		t.Error("no nodes accepted")
	}
	dup := []Node{ns[0], ns[0]}
	if _, err := NewScheduler(500, dup); err == nil {
		t.Error("duplicate node IDs accepted")
	}
	bad := ns
	bad[0].ID = ""
	if _, err := NewScheduler(500, bad); err == nil {
		t.Error("empty node ID accepted")
	}
	invalid := hw.IvyBridge()
	invalid.DRAM = nil
	if _, err := NewScheduler(500, []Node{{ID: "x", Platform: invalid}}); err == nil {
		t.Error("invalid platform accepted")
	}
}

func TestScheduleMixedCPUAndGPUNodes(t *testing.T) {
	ivy, _ := hw.PlatformByName("ivybridge")
	xp, _ := hw.PlatformByName("titanxp")
	s, err := NewScheduler(700, []Node{
		{ID: "cpu0", Platform: ivy},
		{ID: "gpu0", Platform: xp},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw, _ := workload.ByName("sgemm")
	jobs := []Job{job(t, "cpu-job", "stream"), {ID: "gpu-job", Workload: gw}}
	out, err := s.Schedule(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(out); err != nil {
		t.Fatal(err)
	}
	if len(out.Placements) != 2 {
		t.Fatalf("placements = %d, want 2: %+v", len(out.Placements), out)
	}
	byJob := map[string]Placement{}
	for _, pl := range out.Placements {
		byJob[pl.JobID] = pl
	}
	// Kind matching: the GPU job lands on the GPU node.
	if byJob["gpu-job"].NodeID != "gpu0" {
		t.Errorf("GPU job placed on %s", byJob["gpu-job"].NodeID)
	}
	if byJob["cpu-job"].NodeID != "cpu0" {
		t.Errorf("CPU job placed on %s", byJob["cpu-job"].NodeID)
	}
	// The GPU grant respects the card's settable cap range.
	if b := byJob["gpu-job"].Budget; b < xp.GPU.MinCap || b > xp.GPU.MaxCap {
		t.Errorf("GPU grant %v outside card range", b)
	}
	if byJob["gpu-job"].ExpectedPerf <= 0 {
		t.Error("GPU job has no performance")
	}
}

func TestScheduleDefersKindMismatch(t *testing.T) {
	// A GPU job with only CPU nodes available must defer, not crash.
	s, err := NewScheduler(500, nodes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	gw, _ := workload.ByName("minife")
	out, err := s.Schedule([]Job{{ID: "g", Workload: gw}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Deferred) != 1 || out.Deferred[0] != "g" {
		t.Errorf("kind-mismatched job not deferred: %+v", out)
	}
}

func TestScheduleAdmitsWithinBudget(t *testing.T) {
	s, err := NewScheduler(600, nodes(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{job(t, "j1", "dgemm"), job(t, "j2", "stream"), job(t, "j3", "sra")}
	out, err := s.Schedule(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(out); err != nil {
		t.Fatal(err)
	}
	if len(out.Placements)+len(out.Deferred) != 3 {
		t.Fatalf("jobs lost: %+v", out)
	}
	// 600 W over three jobs whose demands are ~180-260 W each: at least
	// two admissions.
	if len(out.Placements) < 2 {
		t.Errorf("only %d jobs admitted at 600 W", len(out.Placements))
	}
	for _, pl := range out.Placements {
		if pl.ExpectedPerf <= 0 {
			t.Errorf("placement %s has no performance", pl.JobID)
		}
		if pl.Alloc.Total() > pl.Budget+0.01 {
			t.Errorf("placement %s allocation exceeds its budget", pl.JobID)
		}
	}
}

func TestScheduleDefersWhenPoolExhausted(t *testing.T) {
	s, err := NewScheduler(250, nodes(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{job(t, "j1", "dgemm"), job(t, "j2", "mg"), job(t, "j3", "sra")}
	out, err := s.Schedule(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Deferred) == 0 {
		t.Error("250 W cannot productively run three jobs; some must defer")
	}
	if err := s.Validate(out); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleDefersWhenNodesExhausted(t *testing.T) {
	s, err := NewScheduler(2000, nodes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{job(t, "j1", "stream"), job(t, "j2", "stream")}
	out, err := s.Schedule(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Placements) != 1 || len(out.Deferred) != 1 {
		t.Errorf("1 node, 2 jobs: placements=%d deferred=%d",
			len(out.Placements), len(out.Deferred))
	}
}

func TestScheduleNeverOverAllocates(t *testing.T) {
	for _, budget := range []units.Power{200, 300, 450, 700, 1200} {
		s, err := NewScheduler(budget, nodes(t, 4))
		if err != nil {
			t.Fatal(err)
		}
		jobs := []Job{
			job(t, "j1", "dgemm"), job(t, "j2", "stream"),
			job(t, "j3", "mg"), job(t, "j4", "ep"),
		}
		out, err := s.Schedule(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(out); err != nil {
			t.Errorf("budget %v: %v", budget, err)
		}
	}
}

func TestScheduleCapsGrantsAtMaxDemand(t *testing.T) {
	// A huge budget must not be dumped on a single job: grants cap at the
	// job's maximum demand and the rest stays in the pool.
	s, err := NewScheduler(5000, nodes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Schedule([]Job{job(t, "j1", "sra")})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Placements) != 1 {
		t.Fatal("job not placed")
	}
	pl := out.Placements[0]
	if pl.Budget.Watts() > 300 {
		t.Errorf("grant %v exceeds any plausible SRA demand", pl.Budget)
	}
	if out.PoolLeft.Watts() < 4600 {
		t.Errorf("pool should retain the surplus: %v", out.PoolLeft)
	}
}

func TestScheduleBoostsConstrainedJobs(t *testing.T) {
	// With two jobs and a budget between one and two full demands, the
	// boost pass should spread leftover power instead of leaving it idle
	// while a job runs constrained.
	s, err := NewScheduler(460, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Schedule([]Job{job(t, "j1", "dgemm"), job(t, "j2", "dgemm")})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Placements) != 2 {
		t.Fatalf("want both jobs admitted, got %d", len(out.Placements))
	}
	// Nearly all power should be granted (what remains is below a single
	// watt-scale boost or reclaimed surplus).
	var granted units.Power
	for _, pl := range out.Placements {
		granted += pl.Budget
	}
	if granted.Watts() < 420 {
		t.Errorf("granted only %v of 460 W", granted)
	}
}

// TestProfileCaching: a (platform, workload) pair is profiled once per
// evaluation engine, however many jobs ask for it. A round scheduling
// two stream jobs issues fewer engine requests than two profiles cost,
// and profiling the pair afterwards issues none: the scheduler's
// profile is the one memoized on the engine.
func TestProfileCaching(t *testing.T) {
	e := evalpool.New(evalpool.Options{Workers: 1})
	prev := evalpool.SetDefault(e)
	defer evalpool.SetDefault(prev)

	s, err := NewScheduler(600, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{job(t, "j1", "stream"), job(t, "j2", "stream")}
	if _, err := s.Schedule(jobs); err != nil {
		t.Fatal(err)
	}
	round := e.Stats().Requests
	prof, err := profile.ProfileCPU(s.Nodes[0].Platform, jobs[0].Workload)
	if err != nil {
		t.Fatal(err)
	}
	if again := e.Stats().Requests - round; again != 0 {
		t.Errorf("profiling the scheduled pair again issued %d engine requests, want 0", again)
	}
	if round >= 2*uint64(prof.Runs) {
		t.Errorf("round issued %d engine requests; one profile costs %d, so the pair was profiled twice",
			round, prof.Runs)
	}
}

// TestSameNameWorkloadsGetOwnProfiles is the regression test for the
// scheduler's profile cache keyed by platform and workload name: a
// workload variant sharing its name with a workload the scheduler had
// already profiled got that workload's profile, and so its split.
// Profiles are now keyed by content, so the variant gets the same
// split on a shared scheduler as on a fresh one, and a different split
// from its namesake.
func TestSameNameWorkloadsGetOwnProfiles(t *testing.T) {
	stream := job(t, "j1", "stream")
	variant := job(t, "j2", "dgemm")
	variant.Workload.Name = stream.Workload.Name
	split := func(s *Scheduler, j Job) core.Allocation {
		t.Helper()
		out, err := s.Schedule([]Job{j})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Placements) != 1 {
			t.Fatalf("%s: %d placements, want 1", j.ID, len(out.Placements))
		}
		return out.Placements[0].Alloc
	}
	shared, err := NewScheduler(208, nodes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	first := split(shared, stream)
	got := split(shared, variant)
	fresh, err := NewScheduler(208, nodes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := split(fresh, variant); got != want {
		t.Errorf("variant split on a scheduler that profiled its namesake = %v, on a fresh scheduler = %v",
			got, want)
	}
	if got == first {
		t.Errorf("variant and its namesake share the split %v; want the variant's own", got)
	}
}

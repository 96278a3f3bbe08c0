package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// admitFixture builds a 2-node Ivy Bridge scheduler and a stream job
// factory for driving AdmitWaiting directly, the way the DES engines
// do.
func admitFixture(t *testing.T, budget units.Power) (*Scheduler, func(id string) TimedJob) {
	t.Helper()
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(budget, []Node{
		{ID: "n1", Platform: p},
		{ID: "n2", Platform: p},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, func(id string) TimedJob {
		return TimedJob{Job: Job{ID: id, Workload: w}, Units: 1e12}
	}
}

// TestAdmitWaitingEmptyQueue: an empty queue is a no-op — state passes
// through untouched and no events are recorded.
func TestAdmitWaitingEmptyQueue(t *testing.T) {
	s, _ := admitFixture(t, 500)
	free := append([]Node(nil), s.Nodes...)
	var res QueueResult
	for _, disc := range []Discipline{DisciplineFIFO, DisciplineBackfill} {
		active, waiting, freeOut, pool, err := s.AdmitWaiting(
			&res, nil, nil, free, s.Budget, 0, PolicyCoord, disc)
		if err != nil {
			t.Fatalf("disc %v: %v", disc, err)
		}
		if len(active) != 0 || len(waiting) != 0 {
			t.Fatalf("disc %v: active %d waiting %d, want 0/0", disc, len(active), len(waiting))
		}
		if pool != s.Budget {
			t.Fatalf("disc %v: pool %v, want untouched %v", disc, pool, s.Budget)
		}
		if len(freeOut) != len(free) {
			t.Fatalf("disc %v: free nodes %d, want %d", disc, len(freeOut), len(free))
		}
		if len(res.Events) != 0 {
			t.Fatalf("disc %v: %d events from an empty queue", disc, len(res.Events))
		}
	}
}

// TestAdmitWaitingAllRejected: a pool below every job's productive
// threshold admits nothing — all jobs stay queued in order, and the
// pool and node list come back unchanged.
func TestAdmitWaitingAllRejected(t *testing.T) {
	s, job := admitFixture(t, 10) // far below stream's productive threshold
	free := append([]Node(nil), s.Nodes...)
	jobs := []TimedJob{job("j1"), job("j2"), job("j3")}
	var res QueueResult
	active, waiting, freeOut, pool, err := s.AdmitWaiting(
		&res, nil, jobs, free, s.Budget, 0, PolicyCoord, DisciplineBackfill)
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != 0 {
		t.Fatalf("admitted %d jobs under a starvation pool", len(active))
	}
	if len(waiting) != 3 {
		t.Fatalf("waiting %d, want all 3 retained", len(waiting))
	}
	for i, j := range jobs {
		if waiting[i].ID != j.ID {
			t.Fatalf("queue order changed: waiting[%d] = %q, want %q", i, waiting[i].ID, j.ID)
		}
	}
	if pool != s.Budget || len(freeOut) != 2 || len(res.Events) != 0 {
		t.Fatalf("rejection mutated state: pool %v free %d events %d", pool, len(freeOut), len(res.Events))
	}
}

// TestAdmitWaitingPoolExhausted: a pool that covers one grant but not
// two admits exactly the head job; the second is blocked on budget,
// not on nodes. Under FIFO a blocked head also blocks juniors even
// when a node is free.
func TestAdmitWaitingPoolExhausted(t *testing.T) {
	s, job := admitFixture(t, 200)
	free := append([]Node(nil), s.Nodes...)
	jobs := []TimedJob{job("j1"), job("j2")}
	var res QueueResult
	active, waiting, freeOut, pool, err := s.AdmitWaiting(
		&res, nil, jobs, free, s.Budget, 0, PolicyCoord, DisciplineBackfill)
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != 1 || active[0].Job.ID != "j1" {
		t.Fatalf("active %d, want exactly the head job admitted", len(active))
	}
	if len(waiting) != 1 || waiting[0].ID != "j2" {
		t.Fatalf("waiting %v, want j2 blocked on pool", waiting)
	}
	if active[0].Budget <= 0 || active[0].Budget > s.Budget {
		t.Fatalf("grant %v outside (0, %v]", active[0].Budget, s.Budget)
	}
	if want := s.Budget - active[0].Budget; pool != want {
		t.Fatalf("pool %v, want budget minus grant %v", pool, want)
	}
	if len(freeOut) != 1 {
		t.Fatalf("free nodes %d, want 1 (one consumed, one idle but unaffordable)", len(freeOut))
	}
	if len(res.Events) != 1 || res.Events[0].Kind != "start" || res.Events[0].JobID != "j1" {
		t.Fatalf("events %+v, want a single start for j1", res.Events)
	}

	// Nodes exhausted instead: plenty of pool, one free node, FIFO must
	// block the whole queue behind the node-starved head.
	s2, job2 := admitFixture(t, 1000)
	var res2 QueueResult
	active2, waiting2, free2, pool2, err := s2.AdmitWaiting(
		&res2, nil, []TimedJob{job2("a"), job2("b"), job2("c")},
		s2.Nodes[:1], s2.Budget, 0, PolicyCoord, DisciplineFIFO)
	if err != nil {
		t.Fatal(err)
	}
	if len(active2) != 1 || len(waiting2) != 2 || len(free2) != 0 {
		t.Fatalf("active %d waiting %d free %d, want 1/2/0", len(active2), len(waiting2), len(free2))
	}
	if pool2 >= s2.Budget {
		t.Fatalf("pool %v did not shrink", pool2)
	}
}

// TestAdmitWaitingBytesIndependentOfFreeNodes: the memory admission
// allocates per admitted job does not grow with the number of free
// nodes. Under backfill every queued job is examined, most of them
// blocked by the pool here; only an admitted job's node is removed, in
// place, so neither the blocked jobs nor the admitted ones copy the
// free list.
func TestAdmitWaitingBytesIndependentOfFreeNodes(t *testing.T) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	bytesPerJob := func(n int) float64 {
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = Node{ID: fmt.Sprintf("n%05d", i), Platform: p}
		}
		s, err := NewScheduler(1000, nodes)
		if err != nil {
			t.Fatal(err)
		}
		jobs := make([]TimedJob, 32)
		for i := range jobs {
			jobs[i] = TimedJob{Job: Job{ID: fmt.Sprintf("j%02d", i), Workload: w}, Units: 1e12}
		}
		best := -1.0
		for rep := 0; rep < 4; rep++ { // the first pass warms the profile caches
			free := append([]Node(nil), nodes...)
			var res QueueResult
			res.Events = make([]Event, 0, len(jobs))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			active, _, freeOut, _, err := s.AdmitWaiting(
				&res, nil, jobs, free, s.Budget, 0, PolicyCoord, DisciplineBackfill)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if len(active) == 0 || len(active) == len(jobs) {
				t.Fatalf("%d nodes: admitted %d of %d jobs, want some admitted and some blocked by the pool",
					n, len(active), len(jobs))
			}
			if len(freeOut) != n-len(active) {
				t.Fatalf("%d nodes: %d free after admitting %d", n, len(freeOut), len(active))
			}
			if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(active)); rep > 0 && (best < 0 || per < best) {
				best = per
			}
		}
		return best
	}
	small, large := bytesPerJob(64), bytesPerJob(4096)
	t.Logf("bytes per admitted job: %.0f with 64 free nodes, %.0f with 4096", small, large)
	// Copying the 4096-node free list even once per admitted job would
	// add over 300 KiB.
	if large > 2*small+16<<10 {
		t.Fatalf("admission allocates %.0f bytes per job with 4096 free nodes vs %.0f with 64: cost grows with the free list",
			large, small)
	}
}

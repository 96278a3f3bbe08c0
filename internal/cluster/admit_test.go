package cluster_test

// The admission pass lives in internal/des, which both queue modes
// share; these tests drive it through des.Run.

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	. "repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/hw"
	"repro/internal/telemetry"
)

// startsAt lists the "job@node" start events of a run at time at, in
// result order.
func startsAt(q *QueueResult, at float64) []string {
	var out []string
	for _, e := range q.Events {
		if e.Kind == "start" && e.Time == at {
			out = append(out, e.JobID+"@"+e.NodeID)
		}
	}
	return out
}

// event returns the first event of kind for job id.
func event(t *testing.T, q *QueueResult, kind, id string) Event {
	t.Helper()
	for _, e := range q.Events {
		if e.Kind == kind && e.JobID == id {
			return e
		}
	}
	t.Fatalf("no %s event for %s", kind, id)
	return Event{}
}

// TestAdmitWaitingEmptyQueue: an empty queue is a no-op: a pass over it
// records no event and leaves the pool and the free nodes as they were,
// under both disciplines. A run without jobs ends at t=0 with the pool
// whole, and the first job to arrive later takes the first node.
func TestAdmitWaitingEmptyQueue(t *testing.T) {
	arr, err := des.ParseArrivalSpec("rate=0.01,units=1e12")
	if err != nil {
		t.Fatal(err)
	}
	for _, disc := range []Discipline{DisciplineFIFO, DisciplineBackfill} {
		s, err := NewScheduler(500, nodes(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := des.Run(des.Config{Sched: s, Policy: PolicyCoord, Discipline: disc})
		if err != nil {
			t.Fatalf("disc %v: %v", disc, err)
		}
		if len(res.Queue.Events) != 0 || res.EngineEvents != 0 || res.Makespan != 0 {
			t.Fatalf("disc %v: %d events, %d engine events, makespan %v from an empty queue",
				disc, len(res.Queue.Events), res.EngineEvents, res.Makespan)
		}
		if res.Faults.PoolLeft != s.Budget {
			t.Fatalf("disc %v: pool %v, want untouched %v", disc, res.Faults.PoolLeft, s.Budget)
		}

		res, err = des.Run(des.Config{
			Sched: s, Workload: mustWorkload(t, "stream"), Policy: PolicyCoord, Discipline: disc,
			Arrivals: arr, Seed: 1, Horizon: 600,
		})
		if err != nil {
			t.Fatalf("disc %v: %v", disc, err)
		}
		first := res.Queue.Events[0]
		if first.Kind != "start" || first.JobID != "a000000" || first.NodeID != "a-node" || first.Time <= 0 {
			t.Fatalf("disc %v: first event %+v, want a000000 starting on a-node after t=0", disc, first)
		}
	}
}

// TestAdmitWaitingAllRejected: a pool below every job's productive
// threshold admits nothing: the pass starts no job and keeps all three
// queued, and the run starves at t=0. Passes that admit nothing leave
// the queue order, the pool and the free nodes as they were: jobs that
// arrive while one job holds the pool start later in arrival order, each
// on the node freed longest ago, and the pool ends whole.
func TestAdmitWaitingAllRejected(t *testing.T) {
	s, err := NewScheduler(10, nodes(t, 2)) // far below stream's productive threshold
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	Instrument(reg)
	defer Instrument(nil)
	jobs := []TimedJob{timedJob(t, "j1", "stream", 1e12), timedJob(t, "j2", "stream", 1e12), timedJob(t, "j3", "stream", 1e12)}
	_, err = des.Run(des.Config{Sched: s, Jobs: jobs, Policy: PolicyCoord, Discipline: DisciplineBackfill})
	if !errors.Is(err, ErrStarved) {
		t.Fatalf("err %v, want ErrStarved", err)
	}
	got := map[string]float64{}
	for _, p := range reg.Snapshot().Points {
		got[p.Name] = p.Value
	}
	if got["cluster_admissions_total"] != 0 || got["cluster_queue_depth"] != 3 || got["cluster_active_jobs"] != 0 {
		t.Fatalf("pass metrics %v, want 0 admitted, 3 queued, 0 running", got)
	}

	// 200 W covers one stream grant at a time. Jobs of 1e12 units arrive
	// about once a second for 5 s, while j1 runs for longer than that.
	s, err = NewScheduler(200, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	arr, err := des.ParseArrivalSpec("rate=1,units=1e12")
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Run(des.Config{
		Sched: s, Workload: mustWorkload(t, "stream"), Jobs: jobs[:1],
		Policy: PolicyCoord, Discipline: DisciplineBackfill,
		Arrivals: arr, Seed: 1, Horizon: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived < 4 {
		t.Fatalf("%d jobs arrived, want at least 3 behind j1", res.Arrived)
	}
	prev, node := "j1", "a-node"
	if got := startsAt(res.Queue, 0); len(got) != 1 || got[0] != "j1@a-node" {
		t.Fatalf("t=0 starts %v, want [j1@a-node]", got)
	}
	for i := 0; i < res.Arrived-1; i++ {
		id := fmt.Sprintf("a%06d", i)
		node = map[string]string{"a-node": "b-node", "b-node": "a-node"}[node]
		start, end := event(t, res.Queue, "start", id), event(t, res.Queue, "finish", prev)
		if start.Time != end.Time || start.NodeID != node {
			t.Fatalf("%s started at %v on %s; want at %s's finish %v, on %s", id, start.Time, start.NodeID, prev, end.Time, node)
		}
		prev = id
	}
	if res.Faults.PoolLeft != s.Budget {
		t.Fatalf("pool left %v, want %v", res.Faults.PoolLeft, s.Budget)
	}
}

// TestAdmitWaitingPoolExhausted: a pool that covers one grant but not
// two admits exactly the head job; the second is blocked on budget, not
// on nodes, and starts on the other node only once the first returns
// its grant. Under FIFO a head blocked for lack of a node blocks the
// jobs behind it even when a node of their kind is free; backfill
// starts them.
func TestAdmitWaitingPoolExhausted(t *testing.T) {
	s, err := NewScheduler(200, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := runQueue(s, []TimedJob{timedJob(t, "j1", "stream", 1e12), timedJob(t, "j2", "stream", 1e12)},
		PolicyCoord, DisciplineBackfill)
	if err != nil {
		t.Fatal(err)
	}
	if got := startsAt(&q, 0); len(got) != 1 || got[0] != "j1@a-node" {
		t.Fatalf("t=0 starts %v, want exactly the head job, [j1@a-node]", got)
	}
	if g := q.Stats["j1"].Budget; g <= 0 || g > s.Budget {
		t.Fatalf("grant %v outside (0, %v]", g, s.Budget)
	}
	if start, end := event(t, &q, "start", "j2"), event(t, &q, "finish", "j1"); start.Time != end.Time || start.NodeID != "b-node" {
		t.Fatalf("j2 started at %v on %s, want at j1's finish %v on the idle b-node", start.Time, start.NodeID, end.Time)
	}

	// Nodes exhausted instead: plenty of pool, one CPU node, and a GPU
	// job behind two CPU jobs.
	cpu, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := hw.PlatformByName("titanxp")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{timedJob(t, "a", "stream", 1e12), timedJob(t, "b", "stream", 1e12), timedJob(t, "c", "sgemm", 1e14)}
	for disc, want := range map[Discipline]int{DisciplineFIFO: 1, DisciplineBackfill: 2} {
		s, err := NewScheduler(1000, []Node{{ID: "cpu0", Platform: cpu}, {ID: "gpu0", Platform: gpu}})
		if err != nil {
			t.Fatal(err)
		}
		q, err := runQueue(s, jobs, PolicyCoord, disc)
		if err != nil {
			t.Fatal(err)
		}
		if got := startsAt(&q, 0); len(got) != want || got[0] != "a@cpu0" || (want == 2 && got[1] != "c@gpu0") {
			t.Fatalf("%v: t=0 starts %v, want a@cpu0 and, under backfill only, c@gpu0", disc, got)
		}
	}
}

// TestAdmitWaitingBytesIndependentOfFreeNodes: the memory a run
// allocates per admitted job does not grow with the number of free
// nodes. Most passes here refuse the queue on the pool. A job takes its
// kind's head free node and a refused workload is not asked again, so
// neither the blocked jobs nor the admitted ones copy or scan the free
// nodes. The per-job cost is the difference between runs of 33 jobs and
// of 1 on the same cluster, which cancels the per-node set-up.
func TestAdmitWaitingBytesIndependentOfFreeNodes(t *testing.T) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, "stream")
	bytesPerJob := func(n int) float64 {
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = Node{ID: fmt.Sprintf("n%05d", i), Platform: p}
		}
		s, err := NewScheduler(1000, nodes)
		if err != nil {
			t.Fatal(err)
		}
		runBytes := func(n int) float64 {
			jobs := make([]TimedJob, n)
			for i := range jobs {
				jobs[i] = TimedJob{Job: Job{ID: fmt.Sprintf("j%02d", i), Workload: w}, Units: 1e12}
			}
			best := -1.0
			for rep := 0; rep < 4; rep++ { // the first run warms the profile caches
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := des.Run(des.Config{Sched: s, Jobs: jobs, Policy: PolicyCoord, Discipline: DisciplineBackfill})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if n > 1 && res.AvgWait == 0 {
					t.Fatalf("%d nodes: no job of %d waited, want some blocked by the pool", len(nodes), n)
				}
				if b := float64(after.TotalAlloc - before.TotalAlloc); rep > 0 && (best < 0 || b < best) {
					best = b
				}
			}
			return best
		}
		return (runBytes(33) - runBytes(1)) / 32
	}
	small, large := bytesPerJob(64), bytesPerJob(4096)
	t.Logf("bytes per admitted job: %.0f with 64 free nodes, %.0f with 4096", small, large)
	// Copying the 4096-node free list even once per admitted job would
	// add over 200 KiB.
	if large > 2*small+16<<10 {
		t.Fatalf("admission allocates %.0f bytes per job with 4096 free nodes vs %.0f with 64: cost grows with the free list",
			large, small)
	}
}

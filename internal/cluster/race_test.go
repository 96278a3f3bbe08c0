package cluster

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

// TestScheduleConcurrentRounds is the regression test for the
// unsynchronized scheduler profile cache: two Schedule rounds running
// concurrently on one Scheduler must neither race on the lazily
// populated profiles/gpuProfiles maps nor diverge from a serial round.
// On the seed code this fails under -race (concurrent map read/write in
// profileFor); with the mutex+singleflight cache it passes.
func TestScheduleConcurrentRounds(t *testing.T) {
	cpu, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := hw.PlatformByName("titanxp")
	if err != nil {
		t.Fatal(err)
	}
	nodes := []Node{
		{ID: "n1", Platform: cpu},
		{ID: "n2", Platform: cpu},
		{ID: "g1", Platform: gpu},
	}
	s, err := NewScheduler(500, nodes)
	if err != nil {
		t.Fatal(err)
	}
	stream := mustWorkload(t, "stream")
	dgemm := mustWorkload(t, "dgemm")
	sgemm := mustWorkload(t, "sgemm")
	jobs := []Job{
		{ID: "j1", Workload: stream},
		{ID: "j2", Workload: dgemm},
		{ID: "j3", Workload: sgemm},
	}

	want, err := s.Schedule(jobs)
	if err != nil {
		t.Fatal(err)
	}
	wantStr := outcomeString(want)

	// Fresh scheduler with cold caches: every concurrent round profiles
	// lazily, so the first touch of each cache key races on seed code.
	s2, err := NewScheduler(500, nodes)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	outs := make([]Outcome, rounds)
	errs := make([]error, rounds)
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = s2.Schedule(jobs)
		}(i)
	}
	wg.Wait()
	for i := 0; i < rounds; i++ {
		if errs[i] != nil {
			t.Fatalf("round %d: %v", i, errs[i])
		}
		if got := outcomeString(outs[i]); got != wantStr {
			t.Errorf("round %d diverged from serial outcome:\ngot  %s\nwant %s", i, got, wantStr)
		}
	}
}

func mustWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// outcomeString renders an outcome deterministically for comparison.
func outcomeString(o Outcome) string {
	s := fmt.Sprintf("pool=%.9f total=%.9f deferred=%v", o.PoolLeft.Watts(),
		o.TotalExpectedPower.Watts(), o.Deferred)
	for _, pl := range o.Placements {
		s += fmt.Sprintf(" [%s@%s %.9f %v perf=%.9f pow=%.9f]",
			pl.JobID, pl.NodeID, pl.Budget.Watts(), pl.Alloc, pl.ExpectedPerf,
			pl.ExpectedPower.Watts())
	}
	return s
}

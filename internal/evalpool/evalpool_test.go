package evalpool

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

func cpuProblem(t testing.TB, platform, wl string) Problem {
	t.Helper()
	p, err := hw.PlatformByName(platform)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	return Problem{Platform: p, Workload: w}
}

func cpuRequests(budget, step units.Power) []Request {
	var reqs []Request
	for proc := units.Power(40); proc <= budget-40; proc += step {
		reqs = append(reqs, Request{Op: OpCPU, Proc: proc, Mem: budget - proc})
	}
	return reqs
}

// TestParallelMatchesSerial is the engine-level determinism guarantee:
// any worker count, with or without cache, cold or warm, produces
// results deeply equal to the serial reference in the same order.
func TestParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		pr   Problem
		reqs []Request
	}{
		{"cpu", cpuProblem(t, "ivybridge", "stream"), cpuRequests(208, 4)},
		{"gpu", cpuProblem(t, "titanxp", "gpustream"), nil},
	}
	// GPU requests: the memory clock enumeration plus mem-power points.
	xp := cases[1].pr.Platform
	for _, clock := range xp.GPU.Mem.Clocks() {
		cases[1].reqs = append(cases[1].reqs, Request{Op: OpGPUClock, Proc: 140, Clock: clock})
	}
	for mem := units.Power(20); mem <= 60; mem += 10 {
		cases[1].reqs = append(cases[1].reqs, Request{Op: OpGPUMemPower, Proc: 140, Mem: mem})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Serial().EvaluateAll(context.Background(), tc.pr, tc.reqs)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{
				{Workers: 4, CacheSize: -1}, // parallel, no cache
				{Workers: 4},                // parallel + cache
				{Workers: 16, CacheSize: 64},
			} {
				e := New(opts)
				for pass := 0; pass < 2; pass++ { // cold then warm cache
					got, err := e.EvaluateAll(context.Background(), tc.pr, tc.reqs)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("opts %+v pass %d: parallel results differ from serial", opts, pass)
					}
				}
			}
		})
	}
}

// TestCacheKeyCollisions verifies that problems differing only in
// platform or only in workload never share entries even at identical
// caps, and that distinct ops with coincidentally equal knob values
// yield distinct keys.
func TestCacheKeyCollisions(t *testing.T) {
	ivyStream := cpuProblem(t, "ivybridge", "stream")
	hasStream := cpuProblem(t, "haswell", "stream")
	ivyDgemm := cpuProblem(t, "ivybridge", "dgemm")
	req := Request{Op: OpCPU, Proc: 120, Mem: 88}

	fps := map[uint64]string{}
	for _, pr := range []Problem{ivyStream, hasStream, ivyDgemm} {
		pr := pr
		fp := pr.fingerprint()
		if prev, dup := fps[fp]; dup {
			t.Fatalf("fingerprint collision: %s/%s vs %s", pr.Platform.Name, pr.Workload.Name, prev)
		}
		fps[fp] = pr.Platform.Name + "/" + pr.Workload.Name
	}

	// With one shared cache, each pair must still get its own result.
	e := New(Options{Workers: 1})
	serial := Serial()
	for _, pr := range []Problem{ivyStream, hasStream, ivyDgemm} {
		got, err := e.Evaluate(pr, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.Evaluate(pr, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: cached result differs from direct simulation",
				pr.Platform.Name, pr.Workload.Name)
		}
	}
	if s := e.Stats(); s.Hits != 0 {
		t.Fatalf("distinct problems with equal caps produced %d cache hits", s.Hits)
	}

	// Same fingerprint, same numbers, different op → different key.
	fp := ivyStream.fingerprint()
	a := Request{Op: OpGPUClock, Proc: 140, Clock: 40}.key(fp)
	b := Request{Op: OpGPUMemPower, Proc: 140, Mem: 40}.key(fp)
	if a == b {
		t.Fatal("OpGPUClock and OpGPUMemPower with equal numeric knobs alias to one key")
	}
	// Same op, swapped knobs → different key.
	c := Request{Op: OpCPU, Proc: 88, Mem: 120}.key(fp)
	d := Request{Op: OpCPU, Proc: 120, Mem: 88}.key(fp)
	if c == d {
		t.Fatal("swapped proc/mem caps alias to one key")
	}
}

// TestRaceStress hammers one engine — with a cache small enough that
// every shard constantly evicts — from many goroutines evaluating an
// overlapping key set, and deriving weighted values that overflow the
// derived memo's bound, while other goroutines snapshot stats. Run
// under -race (make check does), this is the engine's concurrency gate.
func TestRaceStress(t *testing.T) {
	pr := cpuProblem(t, "ivybridge", "mg")
	e := New(Options{Workers: 8, CacheSize: 8}) // 8 entries → per-shard bound 1
	b := e.Bind(pr)
	want, err := Serial().Evaluate(pr, Request{Op: OpCPU, Proc: 120, Mem: 88})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const iters = 30
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Rotate over a small overlapping key set so gets, puts,
				// and evictions interleave on the same shards.
				proc := units.Power(100 + 4*((g+i)%6))
				res, err := e.Evaluate(pr, Request{Op: OpCPU, Proc: proc, Mem: 208 - proc})
				if err != nil {
					errCh <- err
					return
				}
				if proc == 120 && res.Perf != want.Perf {
					errCh <- fmt.Errorf("goroutine %d: perf %v != %v", g, res.Perf, want.Perf)
					return
				}
				k := (g + i) % 6
				if v, err := DeriveWeighted(b, "stress", float64(k), 1+k%3, func() (int, error) { return k, nil }); err != nil || v != k {
					errCh <- fmt.Errorf("goroutine %d: derived %v, %v; want %d", g, v, err, k)
					return
				}
				_ = e.Stats()
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Entries > s.Capacity {
		t.Fatalf("cache holds %d entries over capacity %d", s.Entries, s.Capacity)
	}
	if s.Derived > 8 {
		t.Fatalf("derived memo weighs %d points over CacheSize 8", s.Derived)
	}
	if s.Requests != goroutines*iters {
		t.Fatalf("requests %d, want %d", s.Requests, goroutines*iters)
	}
}

func TestEvictionBound(t *testing.T) {
	pr := cpuProblem(t, "ivybridge", "stream")
	e := New(Options{Workers: 1, CacheSize: 16})
	for i := 0; i < 80; i++ {
		proc := units.Power(40 + i)
		if _, err := e.Evaluate(pr, Request{Op: OpCPU, Proc: proc, Mem: 240 - proc}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Entries > s.Capacity {
		t.Fatalf("entries %d exceed capacity %d", s.Entries, s.Capacity)
	}
	if s.Evictions == 0 {
		t.Fatal("80 distinct points through a 16-entry cache evicted nothing")
	}
	if s.SimRuns != 80 {
		t.Fatalf("sim runs %d, want 80 (all distinct)", s.SimRuns)
	}
}

func TestCacheHitSkipsSimulation(t *testing.T) {
	pr := cpuProblem(t, "ivybridge", "stream")
	e := New(Options{Workers: 1})
	req := Request{Op: OpCPU, Proc: 120, Mem: 88}
	first, err := e.Evaluate(pr, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Evaluate(pr, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cache hit returned a different result")
	}
	s := e.Stats()
	if s.SimRuns != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v: want 1 sim run, 1 hit, 1 miss", s)
	}
	// The handed-out result must be isolated from the cached copy.
	if len(first.Phases) > 0 {
		first.Phases[0].Rate++
		third, err := e.Evaluate(pr, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(third, second) {
			t.Fatal("mutating a returned result corrupted the cache")
		}
	}
}

// TestSimulateBypassesMemo: Bound.Simulate returns what Evaluate
// does, counts as a request and a simulator run, and neither reads
// nor fills the point memo.
func TestSimulateBypassesMemo(t *testing.T) {
	e := New(Options{Workers: 1})
	b := e.Bind(cpuProblem(t, "ivybridge", "stream"))
	req := Request{Op: OpCPU, Proc: 120, Mem: 88}
	for i := 0; i < 2; i++ {
		if _, err := b.Simulate(req); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Requests != 2 || s.SimRuns != 2 || s.Hits+s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("stats %+v: want 2 requests and 2 sim runs, no lookups, no entries", s)
	}
	got, err := b.Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Serial().Evaluate(b.pr, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Simulate %+v, Evaluate %+v", got, want)
	}
}

func TestErrorPropagation(t *testing.T) {
	pr := cpuProblem(t, "ivybridge", "stream")
	// A GPU op against a CPU platform must fail, from every path.
	bad := Request{Op: OpGPUClock, Proc: 140, Clock: 5e9}
	if _, err := New(Options{}).Evaluate(pr, bad); err == nil {
		t.Fatal("GPU op on CPU platform succeeded")
	}
	reqs := []Request{{Op: OpCPU, Proc: 120, Mem: 88}, bad}
	if _, err := New(Options{Workers: 4}).EvaluateAll(context.Background(), pr, reqs); err == nil {
		t.Fatal("EvaluateAll swallowed the failure")
	}
	if _, err := Serial().Evaluate(pr, Request{Op: 0}); err == nil {
		t.Fatal("unknown op succeeded")
	}
}

func TestContextCancellation(t *testing.T) {
	pr := cpuProblem(t, "ivybridge", "stream")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(Options{Workers: 4}).EvaluateAll(ctx, pr, cpuRequests(208, 4)); err == nil {
		t.Fatal("cancelled context did not abort the batch")
	}
	if _, err := Serial().EvaluateAll(ctx, pr, cpuRequests(208, 4)); err == nil {
		t.Fatal("cancelled context did not abort the serial batch")
	}
}

func TestEmptyBatch(t *testing.T) {
	pr := cpuProblem(t, "ivybridge", "stream")
	out, err := New(Options{}).EvaluateAll(context.Background(), pr, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Workers: 8, Requests: 10, SimRuns: 4, Hits: 6, Misses: 4, Capacity: 64, Entries: 4}
	if got := s.HitRate(); got != 0.6 {
		t.Fatalf("hit rate %v, want 0.6", got)
	}
	if str := s.String(); str == "" {
		t.Fatal("empty stats string")
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("zero stats hit rate not 0")
	}
}

func TestDefaultAndConfigure(t *testing.T) {
	prev := SetDefault(nil)
	defer SetDefault(prev)
	e1 := Default()
	if e1 == nil || Default() != e1 {
		t.Fatal("Default not stable")
	}
	e2 := Configure(Options{Workers: 3, CacheSize: 32})
	if Default() != e2 || e2.Workers() != 3 {
		t.Fatalf("Configure did not install the new engine")
	}
}

// TestEvaluateAllFirstErrorInRequestOrder: whatever the worker count,
// a batch with several failing requests reports the earliest one in
// request order, and a cancelled context reports its error.
func TestEvaluateAllFirstErrorInRequestOrder(t *testing.T) {
	pr := cpuProblem(t, "ivybridge", "stream")
	reqs := cpuRequests(208, 8)
	reqs[7].Op = 100
	reqs[3].Op = 99
	for _, workers := range []int{1, 4} {
		e := New(Options{Workers: workers})
		if _, err := e.EvaluateAll(context.Background(), pr, reqs); err == nil ||
			err.Error() != "evalpool: unknown op 99" {
			t.Errorf("workers=%d: err = %v, want the unknown op 99 of request 3", workers, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.EvaluateAll(ctx, pr, cpuRequests(208, 8)); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancelled batch err = %v", workers, err)
		}
	}
}

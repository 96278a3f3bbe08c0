package evalpool

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
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
// any worker count and memo bound, on a first pass and a second one,
// produces results deeply equal to the serial reference in the same
// order.
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
				{Workers: 4, CacheSize: -1},
				{Workers: 4},
				{Workers: 16, CacheSize: 64},
			} {
				e := New(opts)
				for pass := 0; pass < 2; pass++ {
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
// platform or only in workload never share memo entries even under
// one kind and parameter, and that distinct kinds or parameters on one
// problem never alias.
func TestCacheKeyCollisions(t *testing.T) {
	ivyStream := cpuProblem(t, "ivybridge", "stream")
	hasStream := cpuProblem(t, "haswell", "stream")
	ivyDgemm := cpuProblem(t, "ivybridge", "dgemm")
	req := Request{Op: OpCPU, Proc: 120, Mem: 88}

	fps := map[uint64]string{}
	for _, pr := range []Problem{ivyStream, hasStream, ivyDgemm} {
		fp := pr.fingerprint()
		if prev, dup := fps[fp]; dup {
			t.Fatalf("fingerprint collision: %s/%s vs %s", pr.Platform.Name, pr.Workload.Name, prev)
		}
		fps[fp] = pr.Platform.Name + "/" + pr.Workload.Name
	}

	// With one shared memo, each pair must still get its own result.
	e := New(Options{Workers: 1})
	for _, pr := range []Problem{ivyStream, hasStream, ivyDgemm} {
		b := e.Bind(pr)
		got, err := Derive(b, "point", 120, func() (sim.Result, error) { return b.Evaluate(req) })
		if err != nil {
			t.Fatal(err)
		}
		want, err := Serial().Evaluate(pr, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: memoized result differs from direct simulation",
				pr.Platform.Name, pr.Workload.Name)
		}
	}
	if s := e.Stats(); s.Hits != 0 || s.Misses != 3 {
		t.Fatalf("distinct problems under one kind and param: %d hits, %d misses; want 0 and 3", s.Hits, s.Misses)
	}

	// Same problem, different kind or param → different entries.
	b := e.Bind(ivyStream)
	for i, k := range []struct {
		kind  string
		param float64
	}{{"a", 40}, {"b", 40}, {"a", 41}} {
		if got, fresh := deriveInt(t, b, k.kind, k.param, 1, i); !fresh || got != i {
			t.Fatalf("%+v aliased an earlier entry: got %d, fresh %v", k, got, fresh)
		}
	}
}

// TestRaceStress hammers one engine — with a memo small enough that
// weighted derivations constantly evict — from many goroutines
// evaluating an overlapping point set and deriving values over an
// overlapping key set, while other goroutines snapshot stats. Run
// under -race (make check does), this is the engine's concurrency gate.
func TestRaceStress(t *testing.T) {
	pr := cpuProblem(t, "ivybridge", "mg")
	e := New(Options{Workers: 8, CacheSize: 8})
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
		t.Fatalf("memo weighs %d points over capacity %d", s.Entries, s.Capacity)
	}
	if s.Hits+s.Misses != goroutines*iters {
		t.Fatalf("%d memo lookups, want %d", s.Hits+s.Misses, goroutines*iters)
	}
	if s.Requests != goroutines*iters {
		t.Fatalf("requests %d, want %d", s.Requests, goroutines*iters)
	}
}

// TestEvictionBound: 80 distinct derivations, each simulating one
// point, through a 16-point memo keep its weight within the bound,
// evict, and simulate every point once.
func TestEvictionBound(t *testing.T) {
	e := New(Options{Workers: 1, CacheSize: 16})
	b := e.Bind(cpuProblem(t, "ivybridge", "stream"))
	for i := 0; i < 80; i++ {
		proc := units.Power(40 + i)
		if _, err := Derive(b, "point", proc.Watts(), func() (sim.Result, error) {
			return b.Evaluate(Request{Op: OpCPU, Proc: proc, Mem: 240 - proc})
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Entries > s.Capacity {
		t.Fatalf("entries %d exceed capacity %d", s.Entries, s.Capacity)
	}
	if s.Evictions == 0 {
		t.Fatal("80 distinct derivations through a 16-point memo evicted nothing")
	}
	if s.SimRuns != 80 {
		t.Fatalf("sim runs %d, want 80 (all distinct)", s.SimRuns)
	}
}

// TestCacheHitSkipsSimulation: a second derivation of one key reads
// the stored result back without simulating.
func TestCacheHitSkipsSimulation(t *testing.T) {
	e := New(Options{Workers: 1})
	b := e.Bind(cpuProblem(t, "ivybridge", "stream"))
	derive := func() sim.Result {
		t.Helper()
		res, err := Derive(b, "point", 120, func() (sim.Result, error) {
			return b.Evaluate(Request{Op: OpCPU, Proc: 120, Mem: 88})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := derive(), derive()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("memo hit returned a different result")
	}
	if s := e.Stats(); s.SimRuns != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v: want 1 sim run, 1 hit, 1 miss", s)
	}
}

// TestSimulateBypassesMemo: evaluation never stores. Evaluate,
// Bound.Evaluate and EvaluateAll each simulate every point they are
// asked for, count it as a request and a simulator run, make no memo
// lookup and store nothing, and answer what the serial engine does.
func TestSimulateBypassesMemo(t *testing.T) {
	e := New(Options{Workers: 2})
	pr := cpuProblem(t, "ivybridge", "stream")
	b := e.Bind(pr)
	req := Request{Op: OpCPU, Proc: 120, Mem: 88}
	want, err := Serial().Evaluate(pr, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := e.Evaluate(pr, req)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := b.Evaluate(req)
		if err != nil {
			t.Fatal(err)
		}
		all, err := e.EvaluateAll(context.Background(), pr, []Request{req, req})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range append(all, got, bound) {
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("evaluated %+v, serial %+v", res, want)
			}
		}
	}
	s := e.Stats()
	if s.Requests != 8 || s.SimRuns != 8 || s.Hits+s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("stats %+v: want 8 requests and 8 sim runs, no lookups, no entries", s)
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
	if got, want := s.String(), "workers=8 requests=10 sim-runs=4 memo-hits=6 (60.0%) memo-points=4/64 evictions=0"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
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

// TestBoundMatchesEvaluate: a Bound, with and without a bound
// simulator (WithModel), answers every point as a one-shot
// Engine.Evaluate does, result for result and error for error, on its
// first call, while its model's tables fill and once they are warm,
// from one goroutine and from eight sharing a fresh Bound; a problem
// that does not bind (a GPU workload on a CPU platform) answers the
// unbound errors on every call. Every call counts one simulator run.
func TestBoundMatchesEvaluate(t *testing.T) {
	xp := cpuProblem(t, "titanxp", "sgemm")
	mismatched := cpuProblem(t, "ivybridge", "sgemm")
	cases := []struct {
		pr   Problem
		reqs []Request
	}{
		{cpuProblem(t, "ivybridge", "mg"), []Request{
			{Op: OpCPU, Proc: 120, Mem: 88}, {Op: OpCPU}, {Op: OpCPU, Proc: 60, Mem: 30},
			{Op: OpCPU, Proc: 120, Mem: 88}, {Op: OpGPUClock, Proc: 200, Clock: 5e9}, {Op: 0},
		}},
		{xp, []Request{
			{Op: OpGPUClock, Proc: 200, Clock: xp.Platform.GPU.Mem.ClockNom}, {Op: OpGPUMemPower, Proc: 180, Mem: 40},
			{Op: OpGPUOffsets, Proc: 220, SMOffset: -100e6, MemOffset: 150e6}, {Op: OpGPUClock, Proc: 50, Clock: 5e9},
			{Op: OpCPU, Proc: 120, Mem: 88}, {Op: OpGPUMemPower, Proc: 180, Mem: 40},
		}},
		{mismatched, []Request{{Op: OpCPU, Proc: 120, Mem: 88}, {Op: OpCPU, Proc: 120, Mem: 88}, {Op: OpGPUClock, Proc: 200, Clock: 5e9}}},
	}
	same := func(got sim.Result, errGot error, want sim.Result, errWant error) bool {
		if (errGot == nil) != (errWant == nil) || (errGot != nil && errGot.Error() != errWant.Error()) {
			return false
		}
		return reflect.DeepEqual(got, want)
	}
	for _, c := range cases {
		want := make([]sim.Result, len(c.reqs))
		errWant := make([]error, len(c.reqs))
		for i, req := range c.reqs {
			want[i], errWant[i] = Serial().Evaluate(c.pr, req)
		}
		for _, model := range []bool{false, true} {
			e := New(Options{Workers: 1})
			b := e.Bind(c.pr)
			if model {
				b = b.WithModel()
			}
			for pass := 0; pass < 2; pass++ {
				for i, req := range c.reqs {
					got, err := b.Evaluate(req)
					if !same(got, err, want[i], errWant[i]) {
						t.Fatalf("%s/%s model %v pass %d request %d %+v: bound %v, %v; unbound %v, %v",
							c.pr.Platform.Name, c.pr.Workload.Name, model, pass, i, req, got.Perf, err, want[i].Perf, errWant[i])
					}
				}
			}
			if n := e.Stats().SimRuns; n != uint64(2*len(c.reqs)) {
				t.Fatalf("%s/%s model %v: %d simulator runs counted, want %d", c.pr.Platform.Name, c.pr.Workload.Name, model, n, 2*len(c.reqs))
			}
		}

		shared := New(Options{}).Bind(c.pr).WithModel()
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range 3 * len(c.reqs) {
					i := (k + g) % len(c.reqs)
					if got, err := shared.Evaluate(c.reqs[i]); !same(got, err, want[i], errWant[i]) {
						errs[g] = fmt.Errorf("goroutine %d, request %d: bound %v, %v; unbound %v, %v", g, i, got.Perf, err, want[i].Perf, errWant[i])
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("%s/%s shared Bound: %v", c.pr.Platform.Name, c.pr.Workload.Name, err)
		}
	}
}

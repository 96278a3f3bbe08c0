package decisiontable

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/evalpool"
	"repro/internal/wire"
)

// builtSet is everything observable about a set's tables for a few
// pairs: the segment boundaries and the answer (or miss) served at
// every budget of a sweep across and beyond each table's range (nil
// for a miss).
type builtSet struct {
	coordBounds, planBounds map[string][]float64
	served                  map[string][]any
}

func buildSet(t *testing.T, e *evalpool.Engine, coordPairs, planPairs [][2]string) builtSet {
	t.Helper()
	prev := evalpool.SetDefault(e)
	defer evalpool.SetDefault(prev)
	s := New(Config{})
	out := builtSet{
		coordBounds: map[string][]float64{}, planBounds: map[string][]float64{},
		served: map[string][]any{},
	}
	for _, pr := range coordPairs {
		if ok, _ := s.Build(pr[0], pr[1]); !ok {
			t.Fatalf("coord table for %v did not build", pr)
		}
		bounds := s.CoordBoundaries(pr[0], pr[1])
		key := pr[0] + "/" + pr[1]
		out.coordBounds[key] = bounds
		for _, b := range sweepBudgets(bounds[0], bounds[len(bounds)-1]) {
			req := wire.CoordRequest{Platform: pr[0], Workload: pr[1], Budget: b, Strategy: "coord"}
			var resp wire.CoordResponse
			var ans any
			if s.Coord(&req, &resp) {
				ans = resp
			}
			out.served["coord "+key] = append(out.served["coord "+key], ans)
		}
	}
	for _, pr := range planPairs {
		if _, ok := s.Build(pr[0], pr[1]); !ok {
			t.Fatalf("plan table for %v did not build", pr)
		}
		bounds := s.PlanBoundaries(pr[0], pr[1])
		key := pr[0] + "/" + pr[1]
		out.planBounds[key] = bounds
		for _, b := range sweepBudgets(bounds[0], bounds[len(bounds)-1]) {
			req := wire.PlanRequest{Platform: pr[0], Workload: pr[1], Budget: b}
			var resp wire.PlanResponse
			var ans any
			if s.Plan(&req, &resp) {
				ans = resp
			}
			out.served["plan "+key] = append(out.served["plan "+key], ans)
		}
	}
	return out
}

// TestParallelBuildDeterministic: tables built with segment intervals
// fanned over several workers have exactly the boundaries of a
// one-worker build and serve exactly its answers over a budget sweep,
// for a CPU coord, a GPU coord and a plan pair. Each engine starts
// cold, so every build samples the exact path afresh, and the workers
// of one coord build share the pair's bound simulator model, filling
// its tables concurrently.
func TestParallelBuildDeterministic(t *testing.T) {
	coordPairs := [][2]string{{"ivybridge", "sra"}, {"titanxp", "minife"}}
	planPairs := [][2]string{{"haswell", "bt"}}
	want := buildSet(t, evalpool.New(evalpool.Options{Workers: 1}), coordPairs, planPairs)
	for _, workers := range []int{0, 4} {
		got := buildSet(t, evalpool.New(evalpool.Options{Workers: workers}), coordPairs, planPairs)
		if !reflect.DeepEqual(got.coordBounds, want.coordBounds) || !reflect.DeepEqual(got.planBounds, want.planBounds) {
			t.Fatalf("workers=%d: boundaries differ from the one-worker build:\ngot  %v %v\nwant %v %v",
				workers, got.coordBounds, got.planBounds, want.coordBounds, want.planBounds)
		}
		if !reflect.DeepEqual(got.served, want.served) {
			t.Fatalf("workers=%d: served answers differ from the one-worker build", workers)
		}
	}
}

// TestConcurrentMissesBuildOnce: eight goroutines missing on one
// unbuilt pair at once, half through Build and half through the Coord
// lookup, share one table build: the pair is bound once and its exact
// path sampled exactly as often as by one serial Build.
func TestConcurrentMissesBuildOnce(t *testing.T) {
	const platform, wl = "titanxp", "minife"
	counted := func() (*Set, *atomic.Int64, *atomic.Int64) {
		s := New(Config{})
		binds, calls := new(atomic.Int64), new(atomic.Int64)
		s.bindCoord = func(platform, wl string) (coordPath, error) {
			binds.Add(1)
			exact, err := bindExactCoord(platform, wl)
			if err != nil {
				return nil, err
			}
			return func(b float64) (wire.CoordResponse, error) {
				calls.Add(1)
				return exact(b)
			}, nil
		}
		return s, binds, calls
	}
	serial, serialBinds, serialCalls := counted()
	if ok, _ := serial.Build(platform, wl); !ok {
		t.Fatalf("coord table for %s/%s did not build", platform, wl)
	}
	if n := serialBinds.Load(); n != 1 {
		t.Fatalf("a serial build bound its pair %d times, want 1", n)
	}
	k := serialCalls.Load()

	s, binds, calls := counted()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				s.Build(platform, wl)
				return
			}
			req := wire.CoordRequest{Platform: platform, Workload: wl, Budget: 200, Strategy: "coord"}
			var out wire.CoordResponse
			s.Coord(&req, &out)
		}(i)
	}
	close(start)
	wg.Wait()
	// A lookup's miss builds asynchronously; Build waits for that build.
	if ok, _ := s.Build(platform, wl); !ok {
		t.Fatalf("coord table for %s/%s did not build under concurrent misses", platform, wl)
	}
	if got := calls.Load(); got != k {
		t.Errorf("concurrent misses sampled the exact path %d times, a serial build %d", got, k)
	}
	if n := binds.Load(); n != 1 {
		t.Errorf("concurrent misses bound the pair %d times, want 1", n)
	}
}

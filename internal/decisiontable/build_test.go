package decisiontable

import (
	"reflect"
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
// cold, so every build samples the exact path afresh.
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

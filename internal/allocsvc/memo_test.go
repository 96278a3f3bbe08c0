package allocsvc

import (
	"testing"

	"repro/internal/evalpool"
)

// TestComputeCoordReusesMemoAcrossRequests pins cross-request reuse of
// the evaluation memo: each request resolves its platform and workload
// afresh, yet a second coord for the same pair at a new budget must
// re-simulate only the final allocation point, not the whole profile.
func TestComputeCoordReusesMemoAcrossRequests(t *testing.T) {
	e := evalpool.New(evalpool.Options{Workers: 1})
	prev := evalpool.SetDefault(e)
	defer evalpool.SetDefault(prev)

	req := CoordRequest{Platform: "ivybridge", Workload: "stream", Budget: 208}
	if _, err := ComputeCoord(req); err != nil {
		t.Fatal(err)
	}
	cold := e.Stats().SimRuns
	if cold < 2 {
		t.Fatalf("first request ran %d simulations; want a full profile", cold)
	}
	req.Budget = 177
	if _, err := ComputeCoord(req); err != nil {
		t.Fatal(err)
	}
	if delta := e.Stats().SimRuns - cold; delta != 1 {
		t.Fatalf("second request at a new budget ran %d new simulations, want 1 (cold run: %d)",
			delta, cold)
	}
}

// BenchmarkComputeCoordWarm times warm /v1/coord computations: 16 CPU
// (pair, budget) keys whose profiles are already memoized, taken in
// turn, so each call costs the decision and its final simulated split.
func BenchmarkComputeCoordWarm(b *testing.B) {
	var reqs []CoordRequest
	for _, p := range []string{"ivybridge", "haswell"} {
		for _, w := range []string{"stream", "mg", "sp", "is"} {
			for _, budget := range []float64{160, 208} {
				reqs = append(reqs, CoordRequest{Platform: p, Workload: w, Budget: budget})
			}
		}
	}
	prev := evalpool.SetDefault(evalpool.New(evalpool.Options{}))
	defer evalpool.SetDefault(prev)
	for _, req := range reqs {
		if _, err := ComputeCoord(req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeCoord(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

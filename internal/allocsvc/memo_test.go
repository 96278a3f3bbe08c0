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

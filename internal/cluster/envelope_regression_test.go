package cluster

import (
	"math"
	"testing"

	"repro/internal/hw"
)

// TestScheduleGPUJobBelowCapFloor is the regression test for the
// inverted GPU envelope found by the pool-conservation audit: on a card
// whose minimum settable cap exceeds a job's maximum board demand
// (titanv MinCap 100 W vs gpustream P_tot_max 82.4 W), the seed
// scheduler admitted the job with a grant of maxTotal < MinCap and then
// failed the round with "COORD rejected admitted budget". The envelope
// must clamp the maximum useful grant up to the cap floor; the excess
// comes back as reclaimed surplus.
func TestScheduleGPUJobBelowCapFloor(t *testing.T) {
	gpu, err := hw.PlatformByName("titanv")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(150, []Node{{ID: "g1", Platform: gpu}})
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, "gpustream")
	out, err := s.Schedule([]Job{{ID: "j1", Workload: w}})
	if err != nil {
		t.Fatalf("Schedule: %v (seed bug: admitted budget rejected by split)", err)
	}
	if len(out.Placements) != 1 {
		t.Fatalf("placements = %d, want 1 (deferred %v)", len(out.Placements), out.Deferred)
	}
	pl := out.Placements[0]
	if pl.Budget <= 0 {
		t.Errorf("placement budget %v, want > 0", pl.Budget)
	}
	if out.PoolLeft < 0 {
		t.Errorf("PoolLeft %v negative", out.PoolLeft)
	}
	if dev := math.Abs((pl.Budget + out.PoolLeft - s.Budget).Watts()); dev > 1e-6 {
		t.Errorf("conservation: budget %v + pool %v deviates from %v by %.3g W",
			pl.Budget, out.PoolLeft, s.Budget, dev)
	}
	if err := s.Validate(out); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

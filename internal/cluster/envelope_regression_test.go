package cluster

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/units"
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

// TestEnvelopeClampsToCapFloor pins the one envelope the scheduler and
// the invariant harness share: titanv/gpustream demands at most 82.4 W
// of board power, below the card's 100 W cap floor, so both ends of its
// envelope are 100 W. A copy without the clamp once told the harness
// 82.4 W.
func TestEnvelopeClampsToCapFloor(t *testing.T) {
	gpu, err := hw.PlatformByName("titanv")
	if err != nil {
		t.Fatal(err)
	}
	threshold, maxTotal, err := Envelope(Node{ID: "g1", Platform: gpu}, mustWorkload(t, "gpustream"))
	if err != nil {
		t.Fatal(err)
	}
	if threshold != 100 || maxTotal != 100 {
		t.Errorf("envelope [%v, %v], want [100 W, 100 W]", threshold, maxTotal)
	}
}

// TestScheduleReturnsSurplusBeforeNextJob is the regression test for a
// round that returned COORD's surplus only after all of its admission
// decisions. On titanv these workloads demand less than the 100 W cap
// floor, so each is granted 100 W and returns the rest as surplus. With
// three nodes and 290 W, the old round took the surplus of the first
// two jobs back too late and deferred the third with 102–125 W idle, at
// or above its 100 W threshold. Decided at the pool its predecessors
// left, as a queue run decides it, the third job starts.
func TestScheduleReturnsSurplusBeforeNextJob(t *testing.T) {
	gpu, err := hw.PlatformByName("titanv")
	if err != nil {
		t.Fatal(err)
	}
	nodes := []Node{{ID: "g1", Platform: gpu}, {ID: "g2", Platform: gpu}, {ID: "g3", Platform: gpu}}
	s, err := NewScheduler(290, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload string
		poolLeft float64 // W, to a tenth
	}{
		{"cufft", 8.2}, {"gpustream", 42.8}, {"hpcg", 19.1}, {"minife", 11.2}, {"llmchat", 10.6},
	} {
		w := mustWorkload(t, c.workload)
		out, err := s.Schedule([]Job{{ID: "j1", Workload: w}, {ID: "j2", Workload: w}, {ID: "j3", Workload: w}})
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if len(out.Placements) != 3 {
			t.Errorf("%s: %d placements (deferred %v, %v left), want 3", c.workload, len(out.Placements), out.Deferred, out.PoolLeft)
			continue
		}
		if got := math.Round(out.PoolLeft.Watts()*10) / 10; got != c.poolLeft {
			t.Errorf("%s: PoolLeft %v, want %.1f W", c.workload, out.PoolLeft, c.poolLeft)
		}
		var pool units.Power = s.Budget
		for _, pl := range out.Placements {
			a, _, ok, err := s.Admit(nodes[0], Job{Workload: w}, pool, PolicyCoord)
			if err != nil || !ok {
				t.Fatalf("%s: Admit at %v: ok %v, %v", c.workload, pool, ok, err)
			}
			if pl.Budget != a.Budget || pl.ExpectedPower != a.Power {
				t.Errorf("%s: %s placed %v drawing %v, Admit at %v grants %v drawing %v",
					c.workload, pl.JobID, pl.Budget, pl.ExpectedPower, pool, a.Budget, a.Power)
			}
			pool -= a.Budget
		}
	}
}

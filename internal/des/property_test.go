package des

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/units"
)

// conservationTol is the pool-conservation slack pbc verify allows
// (invariant.poolTol): grants are summed in float, so the pool drifts by
// a few ulps per admission.
const conservationTol = units.Power(1e-6)

// modesDiffer reports how two runs of one configuration differ in any
// Result field but Mode and Queue, or "" when they agree. Floats
// compare with ==, so agreement is bit for bit.
func modesDiffer(exact, fast Result) string {
	e, f := exact, fast
	e.Mode, e.Queue, f.Mode, f.Queue = 0, nil, 0, nil
	if e == f {
		return ""
	}
	return fmt.Sprintf("\nexact %+v\n fast %+v", e, f)
}

// TestCrossModeProperties runs a seeded table of clusters (4 to 64
// nodes) × split policies × fault specs × arrival shapes through both
// modes. One engine runs both; the mode only switches the per-job
// records, so on the same configuration the modes must return the same
// Result bit for bit apart from Mode and Queue (trace hash, makespan,
// energy, wait, turnaround, slowdown, event count and fault summary) or
// starve with the same error. Every run finishes every job with the pool
// conserved within the pbc verify tolerance, and replays to the same
// trace hash.
func TestCrossModeProperties(t *testing.T) {
	faultSpecs := []struct{ name, spec string }{
		{"no-faults", ""},
		{"shocks", "shock.mtbs=300,shock.frac=0.3,shock.len=60"},
		{"repaired-outages", "node.mtbf=900,node.mttr=120"},
		{"lost-nodes", "node.mtbf=3000"},
	}
	// Both shapes bring about one job per node every 70 s: on 150 W
	// per node, below stream's maximum demand, grants come from a
	// partial pool, so the split policy matters, and queues form under
	// shocks and outages.
	arrivals := []struct {
		name string
		spec string
		jobs float64 // mean jobs per arrival event
	}{
		{"steady", "rate=%g,units=2e12", 1},
		{"bursty-diurnal", "rate=%g,burst=3,diurnal=0.5,period=600,units=2e12,spread=0.5", 3},
	}
	type row struct {
		name string
		cfg  func(testing.TB, Mode) Config
	}
	var rows []row
	policies := []cluster.SplitPolicy{cluster.PolicyCoord, cluster.PolicyEvenSplit}
	for i, nodes := range []int{4, 16, 64} {
		seed := uint64(i + 1)
		for _, policy := range policies {
			for _, fs := range faultSpecs {
				for _, arr := range arrivals {
					spec := fmt.Sprintf(arr.spec, 0.015*float64(nodes)/arr.jobs)
					rows = append(rows, row{fmt.Sprintf("%dn/%v/%s/%s", nodes, policy, fs.name, arr.name), func(tb testing.TB, mode Mode) Config {
						c := simConfig(tb, mode, nodes, seed, 1200, spec, fs.spec, seed)
						c.Sched.Budget = units.Power(150 * float64(nodes))
						c.Policy = policy
						return c
					}})
				}
			}
		}
	}
	// A light load at the full 208 W per node, where the pool rarely
	// binds.
	rows = append(rows, row{"4n/coord/no-faults/light-208w", func(tb testing.TB, mode Mode) Config {
		return simConfig(tb, mode, 4, 5, 1500, "rate=0.05,burst=2,units=1e12,spread=0.5", "", 0)
	}})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			exact, eerr := Run(r.cfg(t, ModeExact))
			fast, ferr := Run(r.cfg(t, ModeFast))
			if eerr != nil || ferr != nil {
				if !errors.Is(eerr, cluster.ErrStarved) || ferr == nil || eerr.Error() != ferr.Error() {
					t.Fatalf("errors differ or are not starvation: exact %v, fast %v", eerr, ferr)
				}
				return
			}
			if d := modesDiffer(exact, fast); d != "" {
				t.Errorf("modes differ:%s", d)
			}
			if exact.Completed != exact.Arrived {
				t.Errorf("completed %d of %d jobs", exact.Completed, exact.Arrived)
			}
			if exact.Faults.MaxConservationError > conservationTol {
				t.Errorf("pool conservation error %v above %v", exact.Faults.MaxConservationError, conservationTol)
			}
			again, err := Run(r.cfg(t, ModeFast))
			if err != nil || again.TraceHash != fast.TraceHash {
				t.Errorf("fast replay: hash %016x, err %v; first run %016x", again.TraceHash, err, fast.TraceHash)
			}
		})
	}
}

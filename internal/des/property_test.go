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

// TestCrossModeProperties runs a seeded table of clusters (4 to 64
// nodes) × split policies × fault specs × arrival shapes through both
// modes. The modes share every rule — node choice, admission, eviction
// — and differ only in float order, so on the same configuration they
// must see the same arrivals, both finish every job or both starve,
// count the same node failures, recoveries, shocks and re-admissions,
// and both keep the pool conserved within the pbc verify tolerance; a
// fast run must replay to the same trace hash.
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
	policies := []cluster.SplitPolicy{cluster.PolicyCoord, cluster.PolicyEvenSplit}
	for i, nodes := range []int{4, 16, 64} {
		seed := uint64(i + 1)
		for _, policy := range policies {
			for _, fs := range faultSpecs {
				for _, arr := range arrivals {
					name := fmt.Sprintf("%dn/%v/%s/%s", nodes, policy, fs.name, arr.name)
					t.Run(name, func(t *testing.T) {
						spec := fmt.Sprintf(arr.spec, 0.015*float64(nodes)/arr.jobs)
						cfg := func(mode Mode) Config {
							c := simConfig(t, mode, nodes, seed, 1200, spec, fs.spec, seed)
							c.Sched.Budget = units.Power(150 * float64(nodes))
							c.Policy = policy
							return c
						}
						exact, eerr := Run(cfg(ModeExact))
						fast, ferr := Run(cfg(ModeFast))
						starved := errors.Is(eerr, cluster.ErrStarved)
						switch {
						case eerr != nil && !starved:
							t.Fatalf("exact: %v", eerr)
						case ferr != nil && !errors.Is(ferr, cluster.ErrStarved):
							t.Fatalf("fast: %v", ferr)
						case starved != (ferr != nil):
							t.Fatalf("one mode starved: exact %v, fast %v", eerr, ferr)
						}
						if starved {
							return
						}
						for _, c := range []struct {
							name        string
							exact, fast int
						}{
							{"arrivals", exact.Arrived, fast.Arrived},
							{"completions", exact.Completed, fast.Completed},
							{"node failures", exact.Faults.NodeFailures, fast.Faults.NodeFailures},
							{"node recoveries", exact.Faults.NodeRecoveries, fast.Faults.NodeRecoveries},
							{"shocks", exact.Faults.Shocks, fast.Faults.Shocks},
							{"re-admissions", exact.Faults.Readmissions, fast.Faults.Readmissions},
						} {
							if c.exact != c.fast {
								t.Errorf("%s differ: exact %d, fast %d", c.name, c.exact, c.fast)
							}
						}
						for _, r := range []Result{exact, fast} {
							if r.Completed != r.Arrived {
								t.Errorf("%v completed %d of %d jobs", r.Mode, r.Completed, r.Arrived)
							}
							if r.Faults.MaxConservationError > conservationTol {
								t.Errorf("%v pool conservation error %v above %v", r.Mode, r.Faults.MaxConservationError, conservationTol)
							}
						}
						again, err := Run(cfg(ModeFast))
						if err != nil || again.TraceHash != fast.TraceHash {
							t.Errorf("fast replay: hash %016x, err %v; first run %016x", again.TraceHash, err, fast.TraceHash)
						}
					})
				}
			}
		}
	}
}

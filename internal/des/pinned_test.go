package des

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// simConfig is a pbc-des-shaped run: n ivybridge nodes named node%05d
// at 208 W each running stream under coord/backfill, the arrival spec
// over horizon from seed, and faultSpec ("" runs without an injector)
// from faultSeed.
func simConfig(tb testing.TB, mode Mode, n int, seed uint64, horizon float64, arrival, faultSpec string, faultSeed uint64) Config {
	tb.Helper()
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		tb.Fatal(err)
	}
	w, err := workload.ByName("stream")
	if err != nil {
		tb.Fatal(err)
	}
	nodes := make([]cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: fmt.Sprintf("node%05d", i), Platform: p}
	}
	sched, err := cluster.NewScheduler(units.Power(208*float64(n)), nodes)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sched.Prewarm([]workload.Workload{w}); err != nil {
		tb.Fatal(err)
	}
	arr, err := ParseArrivalSpec(arrival)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{
		Sched: sched, Workload: w,
		Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
		Arrivals: arr, Seed: seed, Horizon: horizon, Mode: mode,
	}
	if faultSpec != "" {
		sp, err := faults.ParseSpec(faultSpec)
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Injector = faults.NewInjector(sp, faultSeed)
	}
	return cfg
}

// TestTraceHashPinned pins the trace hash of representative runs in
// both modes: the README's pbc des example, the dessmoke run, the
// perfbench simulate configurations (BenchmarkRunFast10k and
// BenchmarkRunExact256) and small runs with node outages. Any change
// to event order, admission decisions, float expressions, arrival or
// fault schedules, or the hash itself moves one of these values.
func TestTraceHashPinned(t *testing.T) {
	const (
		readme      = "rate=0.2,burst=2,diurnal=0.3,units=2e12"
		shocks      = "shock.mtbs=600,shock.frac=0.25,shock.len=60"
		smoke       = "rate=0.2,burst=2,units=2e12"
		busy        = "rate=1,burst=2,units=2e12,spread=0.5"
		smokeShocks = "shock.mtbs=120,shock.frac=0.25,shock.len=20"
		outages     = "rate=0.1,burst=2,diurnal=0.5,period=600,units=2e12,spread=0.5"
		repaired    = "node.mtbf=900,node.mttr=120,shock.mtbs=300,shock.frac=0.2,shock.len=30"
		lost        = "node.mtbf=3000"
	)
	// tight bounds a run at 120 W per node, below stream's maximum
	// demand on ivybridge, so admission grants from a partial pool.
	tight := func(cfg Config) Config {
		cfg.Sched.Budget = units.Power(120 * float64(len(cfg.Sched.Nodes)))
		return cfg
	}
	cases := []struct {
		name string
		cfg  func() Config
		want uint64
	}{
		{"readme/fast", func() Config { return simConfig(t, ModeFast, 100, 7, 3600, readme, shocks, 1) }, 0x6be66bbe28ba1166},
		{"readme/exact", func() Config { return simConfig(t, ModeExact, 100, 7, 3600, readme, shocks, 1) }, 0x44675b609106d604},
		{"dessmoke", func() Config {
			return simConfig(t, ModeFast, 64, 7, 600, smoke, smokeShocks, 1)
		}, 0x7dee95b5f55ba9df},
		{"bench/fast10k", func() Config { return benchConfig(t, ModeFast, 10000, 800, benchFastArrivals) }, 0xc83ba60112dd492c},
		{"bench/exact256", func() Config { return benchConfig(t, ModeExact, 256, 1900, benchExactArrivals) }, 0xdd2b48bb4d308ea4},
		{"outages/fast", func() Config { return simConfig(t, ModeFast, 32, 5, 1200, outages, repaired, 2) }, 0x7352cdbc809df58c},
		{"outages/exact", func() Config { return simConfig(t, ModeExact, 32, 5, 1200, outages, repaired, 2) }, 0x35f117796cb9d72e},
		{"lost-nodes/fast", func() Config { return simConfig(t, ModeFast, 32, 5, 1200, outages, lost, 2) }, 0xdf6cb8ff0ff17551},
		{"lost-nodes/exact", func() Config { return simConfig(t, ModeExact, 32, 5, 1200, outages, lost, 2) }, 0x395f92d538499753},
		{"tight/fast", func() Config { return tight(simConfig(t, ModeFast, 64, 7, 600, busy, smokeShocks, 1)) }, 0x758f6f9f48c2faf9},
		{"tight/exact", func() Config { return tight(simConfig(t, ModeExact, 64, 7, 600, busy, smokeShocks, 1)) }, 0xb017477ff6f640ff},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != res.Arrived {
				t.Errorf("completed %d of %d jobs", res.Completed, res.Arrived)
			}
			if res.TraceHash != c.want {
				t.Errorf("trace hash %016x, pinned %016x (events %d, failures %d, shocks %d)",
					res.TraceHash, c.want, res.EngineEvents, res.Faults.NodeFailures, res.Faults.Shocks)
			}
		})
	}
}

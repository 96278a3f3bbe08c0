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

// TestTraceHashPinned pins the trace hash of representative runs, each
// checked in both modes against one pin: the README's pbc des example,
// the dessmoke run, the perfbench simulate configurations
// (BenchmarkRunFast10k and BenchmarkRunExact256), small runs with node
// outages, and an oversubscribed queue (BenchmarkRunExactOversubscribed).
// Any change to event order, admission decisions, float expressions,
// arrival or fault schedules, or the hash itself moves one of these
// values.
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
		cfg  func(Mode) Config
		want uint64
	}{
		{"readme", func(m Mode) Config { return simConfig(t, m, 100, 7, 3600, readme, shocks, 1) }, 0x4b9d18c9795e8850},
		{"dessmoke", func(m Mode) Config { return simConfig(t, m, 64, 7, 600, smoke, smokeShocks, 1) }, 0xb5aff0eab7034cd3},
		{"bench/fast10k", func(m Mode) Config { return benchConfig(t, m, 10000, 800, benchFastArrivals) }, 0xd38684d715a659f6},
		{"bench/exact256", func(m Mode) Config { return benchConfig(t, m, 256, 1900, benchExactArrivals) }, 0x4e69f93fe4cae50a},
		{"outages", func(m Mode) Config { return simConfig(t, m, 32, 5, 1200, outages, repaired, 2) }, 0xfef5aa911547031d},
		{"lost-nodes", func(m Mode) Config { return simConfig(t, m, 32, 5, 1200, outages, lost, 2) }, 0xbebb51d5c45cb18c},
		{"tight", func(m Mode) Config { return tight(simConfig(t, m, 64, 7, 600, busy, smokeShocks, 1)) }, 0x70bdc36731f7ab1e},
		{"oversubscribed", func(m Mode) Config { return oversubscribedConfig(t, m) }, 0xf14320918ec0eefd},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, mode := range []Mode{ModeExact, ModeFast} {
				t.Run(mode.String(), func(t *testing.T) {
					res, err := Run(c.cfg(mode))
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
		})
	}
}

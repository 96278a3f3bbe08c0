package des

import (
	"testing"

	"repro/internal/units"
)

// Arrival specs of the perfbench simulate round's two DES runs, and of
// an oversubscribed run.
const (
	benchExactArrivals     = "rate=0.9,burst=2,diurnal=0.3,period=3600,units=2e12,spread=0.5"
	benchFastArrivals      = "rate=35,burst=2,diurnal=0.3,period=3600,units=2e12,spread=0.5"
	oversubscribedArrivals = "rate=0.96,burst=3,diurnal=0.5,period=600,units=2e12,spread=0.5"
)

// benchConfig is the perfbench simulate configuration of one DES mode:
// n ivybridge nodes at 208 W each running stream, coord/backfill, the
// given arrival spec over horizon, and the simulate fault spec.
func benchConfig(tb testing.TB, mode Mode, n int, horizon float64, arrival string) Config {
	const seed = 9
	return simConfig(tb, mode, n, seed, horizon, arrival, "shock.mtbs=3600,shock.frac=0.15,shock.len=120", seed)
}

// oversubscribedConfig is `pbc des -nodes 64 -budget 150 -horizon 1200
// -seed 3` with oversubscribedArrivals: 64 ivybridge nodes at 150 W
// each, below stream's maximum demand, fed about three times the jobs
// they can serve, so a queue of hundreds waits at most events.
func oversubscribedConfig(tb testing.TB, mode Mode) Config {
	cfg := simConfig(tb, mode, 64, 3, 1200, oversubscribedArrivals, "", 0)
	cfg.Sched.Budget = units.Power(150 * 64)
	return cfg
}

// benchRun times Run on cfg and reports the engine events per run and
// the time per event.
func benchRun(b *testing.B, cfg Config) {
	res, err := Run(cfg) // warms the engine's memo
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.EngineEvents), "events/run")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.EngineEvents), "ns/event")
}

// BenchmarkRunExact256 is the simulate round's exact-mode run: 256
// nodes over a 1900 s horizon.
func BenchmarkRunExact256(b *testing.B) {
	benchRun(b, benchConfig(b, ModeExact, 256, 1900, benchExactArrivals))
}

// BenchmarkRunFast10k is the simulate round's fast-mode run: 10k nodes
// over an 800 s horizon.
func BenchmarkRunFast10k(b *testing.B) {
	benchRun(b, benchConfig(b, ModeFast, 10000, 800, benchFastArrivals))
}

// BenchmarkRunExactOversubscribed is exact mode under a long waiting
// queue: most events end in an admission pass that starts nothing.
func BenchmarkRunExactOversubscribed(b *testing.B) {
	benchRun(b, oversubscribedConfig(b, ModeExact))
}

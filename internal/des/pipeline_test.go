package des

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/units"
)

// pipelineStages counts the goroutines running a pipeline stage: a
// producer drawing an arrival trace or a recorder folding event
// records.
func pipelineStages() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "des.(*jobWriter).produce") || strings.Contains(g, "des.(*recorder).record") {
			n++
		}
	}
	return n
}

// TestRunEarlyExitStopsPipeline: every early return of Run leaves no
// pipeline stage running, in both modes. The trace is tens of thousands
// of arrivals, so a producer left drawing it, or a recorder left
// waiting for records, would still be there when Run returns. A stage
// that has finished may still be unwinding as Run returns, so the test
// gives it a moment.
func TestRunEarlyExitStopsPipeline(t *testing.T) {
	arr, err := ParseArrivalSpec("rate=35,burst=2,units=2e12,spread=0.5")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(cfg *Config)
		want func(err error) bool
	}{
		{"max events", func(cfg *Config) { cfg.MaxEvents = 50 },
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "exceeded 50 events") }},
		{"starved", func(cfg *Config) {
			s := *cfg.Sched
			s.Budget = units.Power(10)
			cfg.Sched = &s
		}, func(err error) bool { return errors.Is(err, cluster.ErrStarved) }},
		{"zero work", func(cfg *Config) { cfg.Jobs[1].Units = 0 },
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "non-positive work") }},
		{"generated name", func(cfg *Config) { cfg.Jobs[1].ID = "a000100" },
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "generated arrival 100") }},
		{"budget schedule", func(cfg *Config) { cfg.BudgetPhases = []BudgetPhase{{Until: -1, Budget: 100}} },
			func(err error) bool { return errors.Is(err, ErrBudgetPhase) }},
	}
	for _, c := range cases {
		for _, mode := range []Mode{ModeExact, ModeFast} {
			sched, w := testSched(t, 16)
			cfg := Config{
				Sched: sched, Workload: w, Jobs: testJobs(w, 2, 1e12),
				Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
				Arrivals: arr, Seed: 1, Horizon: 800, Mode: mode,
			}
			c.edit(&cfg)
			if _, err := Run(cfg); !c.want(err) {
				t.Errorf("%s, %v: Run error = %v", c.name, mode, err)
			}
			deadline := time.Now().Add(time.Second)
			for pipelineStages() > 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := pipelineStages(); n > 0 {
				t.Errorf("%s, %v: %d pipeline stage(s) still running after Run returned", c.name, mode, n)
			}
		}
	}
}

// TestExactPresizeBounded: exact mode presizes its per-job result for
// the expected arrivals, but no further than the event bound. An exact
// run of a rate=1e6 spec, 256Ki expected arrivals, stopped after 1000
// events, allocates at most the job store its producer may fill (256Ki
// 64-byte records, 16 MiB, however far it runs ahead of the loop) and
// 8 MiB besides. With a result presized for every expected arrival
// the run allocated about 64 MiB.
func TestExactPresizeBounded(t *testing.T) {
	const ceiling = 24 << 20
	arr, err := ParseArrivalSpec("rate=1e6,units=2e12")
	if err != nil {
		t.Fatal(err)
	}
	sched, w := testSched(t, 16)
	cfg := Config{
		Sched: sched, Workload: w,
		Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
		Arrivals: arr, Seed: 1, Horizon: 1e4, Mode: ModeExact,
		MaxEvents: 1000, MaxJobs: 1 << 18,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Run(cfg)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeded 1000 events") {
		t.Fatalf("Run error = %v, want the event bound", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("exact run stopped after 1000 events allocated %d B, ceiling %d B", got, ceiling)
	}
}

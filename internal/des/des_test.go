package des

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

func testSched(t *testing.T, n int) (*cluster.Scheduler, workload.Workload) {
	t.Helper()
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	w, err := workload.ByName("stream")
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	nodes := make([]cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: fmt.Sprintf("node%02d", i), Platform: p}
	}
	sched, err := cluster.NewScheduler(units.Power(208*float64(n)), nodes)
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	return sched, w
}

func testJobs(w workload.Workload, n int, unitsPer float64) []cluster.TimedJob {
	jobs := make([]cluster.TimedJob, n)
	for i := range jobs {
		jobs[i] = cluster.TimedJob{
			Job:   cluster.Job{ID: fmt.Sprintf("job%02d", i), Workload: w},
			Units: unitsPer,
		}
	}
	return jobs
}

func replayCfg(t *testing.T, mode Mode, seed uint64) Config {
	t.Helper()
	sched, w := testSched(t, 4)
	arr, err := ParseArrivalSpec("rate=0.05,burst=1.5,diurnal=0.4,period=900,units=2e12,spread=0.5")
	if err != nil {
		t.Fatalf("arrival spec: %v", err)
	}
	sp, err := faults.ParseSpec(goldenFaultSpec)
	if err != nil {
		t.Fatalf("fault spec: %v", err)
	}
	return Config{
		Sched: sched, Workload: w,
		Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
		Arrivals: arr, Seed: seed, Horizon: 1200,
		Injector: faults.NewInjector(sp, seed),
		Mode:     mode,
	}
}

// TestReplayDeterminism: the same seed replays byte-identically — equal
// trace hashes, equal makespan bits, equal aggregates — in both modes.
func TestReplayDeterminism(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeFast} {
		t.Run(mode.String(), func(t *testing.T) {
			a, err := Run(replayCfg(t, mode, 11))
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := Run(replayCfg(t, mode, 11))
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if a.TraceHash != b.TraceHash {
				t.Errorf("trace hashes differ: %016x vs %016x", a.TraceHash, b.TraceHash)
			}
			if math.Float64bits(a.Makespan) != math.Float64bits(b.Makespan) {
				t.Errorf("makespan bits differ: %v vs %v", a.Makespan, b.Makespan)
			}
			if a.Arrived != b.Arrived || a.Completed != b.Completed || a.EngineEvents != b.EngineEvents {
				t.Errorf("counts differ: %+v vs %+v", a, b)
			}
			if a.Arrived == 0 || a.Completed != a.Arrived {
				t.Errorf("replay run did not complete all jobs: %+v", a)
			}
			// A different seed must not replay the same trace.
			c, err := Run(replayCfg(t, mode, 12))
			if err != nil {
				t.Fatalf("third run: %v", err)
			}
			if c.TraceHash == a.TraceHash {
				t.Errorf("different seeds produced the same trace hash %016x", a.TraceHash)
			}
		})
	}
}

// TestScaleSmokeFast drives a deliberately oversubscribed burst of
// thousands of jobs through a few hundred nodes — small enough for CI,
// shaped like the million-job bench — and checks the run drains fully
// and deterministically.
func TestScaleSmokeFast(t *testing.T) {
	mk := func() Config {
		sched, w := testSched(t, 200)
		arr, err := ParseArrivalSpec("rate=20,burst=2,units=5e11,spread=0.8")
		if err != nil {
			t.Fatalf("arrival spec: %v", err)
		}
		return Config{
			Sched: sched, Workload: w,
			Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
			Arrivals: arr, Seed: 3, Horizon: 300, Mode: ModeFast,
		}
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if a.Arrived < 5000 {
		t.Fatalf("scale smoke generated only %d jobs", a.Arrived)
	}
	if a.Completed != a.Arrived {
		t.Fatalf("completed %d of %d jobs", a.Completed, a.Arrived)
	}
	if a.Makespan <= 300 {
		t.Errorf("oversubscribed run should drain past the horizon, makespan %g", a.Makespan)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if a.TraceHash != b.TraceHash {
		t.Errorf("scale run is not replay-deterministic: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
}

// TestFastEngineFaultAccounting: the fast engine's fault counters move
// under an injector and the pool-conservation invariant holds.
func TestFastEngineFaultAccounting(t *testing.T) {
	res, err := Run(replayCfg(t, ModeFast, 11))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Faults.Shocks == 0 || res.Faults.NodeFailures == 0 || res.Faults.Readmissions == 0 {
		t.Fatalf("fault run should exercise shocks, outages, and evictions: %+v", res.Faults)
	}
	if res.Completed != res.Arrived {
		t.Errorf("faulty run lost jobs: %d of %d", res.Completed, res.Arrived)
	}
	if res.Faults.MaxConservationError > units.Power(1e-6) {
		t.Errorf("pool conservation error %v too large", res.Faults.MaxConservationError)
	}
	// With every job complete and every shock expired, the shock-adjusted
	// pool must equal the cluster budget — the invariant pbc verify pins
	// for exact mode, held here by the fast engine too.
	if diff := math.Abs(res.Faults.PoolLeft.Watts() - 832); diff > 1e-6 {
		t.Errorf("PoolLeft %v != budget 832 W", res.Faults.PoolLeft)
	}
}

func TestParseArrivalSpec(t *testing.T) {
	sp, err := ParseArrivalSpec(" rate = 2 , burst=1.5, diurnal=0.3 ,period=3600,units=2e12,spread=0.25")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := ArrivalSpec{Rate: 2, Burst: 1.5, Diurnal: 0.3, Period: 3600, Units: 2e12, Spread: 0.25}
	if sp != want {
		t.Fatalf("got %+v want %+v", sp, want)
	}
	if back, err := ParseArrivalSpec(sp.String()); err != nil || back != sp {
		t.Fatalf("round trip %q -> %+v (%v)", sp.String(), back, err)
	}
	if got := (ArrivalSpec{}).String(); got != "none" {
		t.Errorf("zero spec renders %q", got)
	}
	for _, bad := range []string{
		"rate",            // not key=value
		"bogus=1",         // unknown key
		"rate=1,rate=2",   // duplicate
		"rate=xyz",        // malformed value
		"rate=-1",         // negative
		"diurnal=1.5",     // amplitude above 1
		"spread=1",        // spread must stay below 1
		"rate=Inf",        // not finite
		"rate=1,,units=2", // empty entry
	} {
		if _, err := ParseArrivalSpec(bad); err == nil {
			t.Errorf("ParseArrivalSpec(%q) accepted invalid spec", bad)
		}
	}
}

// TestGenerateArrivals covers the process shape: determinism, horizon
// clipping, burst expansion, and spread bounds.
func TestGenerateArrivals(t *testing.T) {
	sp := ArrivalSpec{Rate: 1, Burst: 3, Diurnal: 0.5, Period: 100, Units: 1e12, Spread: 0.5}
	a := generateArrivals(sp, 9, 500, 1<<20)
	b := generateArrivals(sp, 9, 500, 1<<20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("generateArrivals is not deterministic")
	}
	if len(a) < 300 {
		t.Fatalf("expected a few hundred jobs, got %d", len(a))
	}
	last := 0.0
	for _, j := range a {
		if j.at < last || j.at >= 500 {
			t.Fatalf("arrival time %g out of order or past horizon", j.at)
		}
		last = j.at
		if j.units < 0.5e12 || j.units > 1.5e12 {
			t.Fatalf("job units %g outside spread envelope", j.units)
		}
	}
	if got := generateArrivals(ArrivalSpec{}, 9, 500, 1<<20); got != nil {
		t.Errorf("zero spec generated %d jobs", len(got))
	}
	if got := generateArrivals(sp, 9, 500, 10); len(got) != 10 {
		t.Errorf("maxJobs cap generated %d jobs", len(got))
	}
}

// TestRunRejectsCollidingJobIDs: exact mode keys its bookkeeping by
// job ID, so a t=0 job named like a generated arrival (a%06d), or two
// t=0 jobs with one ID, used to merge two jobs' stats silently. Both
// modes reject them with an error naming the ID; an a%06d name that no
// arrival of the run takes is fine.
func TestRunRejectsCollidingJobIDs(t *testing.T) {
	arr, err := ParseArrivalSpec("rate=0.05,units=2e12")
	if err != nil {
		t.Fatal(err)
	}
	job := func(w workload.Workload, id string) cluster.TimedJob {
		return cluster.TimedJob{Job: cluster.Job{ID: id, Workload: w}, Units: 2e12}
	}
	for _, mode := range []Mode{ModeExact, ModeFast} {
		t.Run(mode.String(), func(t *testing.T) {
			sched, w := testSched(t, 4)
			cfg := Config{
				Sched: sched, Workload: w,
				Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
				Arrivals: arr, Seed: 1, Horizon: 600, Mode: mode,
			}
			for _, c := range []struct {
				name, id string
				jobs     []cluster.TimedJob
			}{
				{"generated-name", "a000000", []cluster.TimedJob{job(w, "a000000")}},
				{"duplicate", "x", []cluster.TimedJob{job(w, "x"), job(w, "x")}},
			} {
				cfg.Jobs = c.jobs
				_, err := Run(cfg)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", c.id)) {
					t.Errorf("%s: Run error = %v, want one naming %q", c.name, err, c.id)
				}
			}
			cfg.Jobs = []cluster.TimedJob{job(w, "a999999")}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("unused generated name: %v", err)
			}
			if res.Completed != res.Arrived {
				t.Errorf("completed %d of %d jobs", res.Completed, res.Arrived)
			}
			cfg.Jobs, cfg.Arrivals = []cluster.TimedJob{job(w, "a000000")}, ArrivalSpec{}
			if _, err := Run(cfg); err != nil {
				t.Errorf("a000000 without arrivals: %v", err)
			}
		})
	}
}

// TestFastModeAdmissionMetrics: fast mode records its admissions like
// exact mode does. The counter equals the run's starts (every job once,
// plus once per re-admission) and both gauges read 0 once the run has
// drained; admission probes touch neither.
func TestFastModeAdmissionMetrics(t *testing.T) {
	for name, cfg := range map[string]Config{
		"fault-free": simConfig(t, ModeFast, 200, 3, 600, "rate=1,burst=2,units=2e12", "", 0),
		"faulty":     replayCfg(t, ModeFast, 11),
	} {
		t.Run(name, func(t *testing.T) {
			reg := telemetry.New()
			cluster.Instrument(reg)
			defer cluster.Instrument(nil)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]float64{}
			for _, p := range reg.Snapshot().Points {
				got[p.Name] = p.Value
			}
			want := map[string]float64{
				"cluster_admissions_total": float64(res.Arrived + res.Faults.Readmissions),
				"cluster_queue_depth":      0,
				"cluster_active_jobs":      0,
			}
			for name, v := range want {
				if got[name] != v {
					t.Errorf("%s = %v, want %v (arrived %d, readmissions %d)",
						name, got[name], v, res.Arrived, res.Faults.Readmissions)
				}
			}
		})
	}
}

// TestFastModeFaultMetrics: both modes count the fault path into the
// registry passed to Instrument, and the counters agree with the run's
// FaultSummary: node failures and recoveries, shocks, evictions by
// cause, re-admissions and the reclaimed power.
func TestFastModeFaultMetrics(t *testing.T) {
	const (
		arrivals = "rate=0.1,burst=2,diurnal=0.5,period=600,units=2e12,spread=0.5"
		faulty   = "node.mtbf=900,node.mttr=120,shock.mtbs=300,shock.frac=0.2,shock.len=30"
	)
	for _, mode := range []Mode{ModeFast, ModeExact} {
		t.Run(mode.String(), func(t *testing.T) {
			reg := telemetry.New()
			Instrument(reg)
			defer Instrument(nil)
			res, err := Run(simConfig(t, mode, 32, 5, 1200, arrivals, faulty, 2))
			if err != nil {
				t.Fatal(err)
			}
			f := res.Faults
			if f.NodeFailures == 0 || f.NodeRecoveries == 0 || f.Shocks == 0 || f.Readmissions == 0 {
				t.Fatalf("run should exercise outages, repairs, shocks and evictions: %+v", f)
			}
			got := map[string]float64{}
			for _, p := range reg.Snapshot().Points {
				name := p.Name
				for _, l := range p.Labels {
					name += "{" + l.Key + "=" + l.Value + "}"
				}
				got[name] = p.Value
			}
			evicted := got["cluster_evictions_total{cause=node-failure}"] + got["cluster_evictions_total{cause=budget-shock}"]
			for name, c := range map[string][2]float64{
				"cluster_node_failures_total":   {got["cluster_node_failures_total"], float64(f.NodeFailures)},
				"cluster_node_recoveries_total": {got["cluster_node_recoveries_total"], float64(f.NodeRecoveries)},
				"cluster_budget_shocks_total":   {got["cluster_budget_shocks_total"], float64(f.Shocks)},
				"cluster_readmissions_total":    {got["cluster_readmissions_total"], float64(f.Readmissions)},
				"cluster_evictions_total":       {evicted, float64(f.Readmissions)},
			} {
				if c[0] != c[1] {
					t.Errorf("%s = %v, want %v", name, c[0], c[1])
				}
			}
			if w, want := got["cluster_budget_reclaimed_watts_total"], f.BudgetReclaimed.Watts(); math.Abs(w-want) > 1e-6*want {
				t.Errorf("cluster_budget_reclaimed_watts_total = %v, want %v", w, want)
			}
		})
	}
}

// TestNodeOutagesDrawnLazily: node outages are drawn as the run reaches
// them, not over the whole fault horizon (about 4e5 times the makespan
// here). A 1000-node fast run with node faults took 29 s when every
// node's schedule was drawn up front; it must finish in well under a
// second, with the trace it had then.
func TestNodeOutagesDrawnLazily(t *testing.T) {
	cfg := simConfig(t, ModeFast, 1000, 3, 1800, "rate=4,burst=2,diurnal=0.3,period=3600,units=2e12,spread=0.5",
		"node.mtbf=20000,node.mttr=300", 1)
	start := time.Now()
	res, err := Run(cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > time.Second {
		t.Errorf("run took %v, want under 1s", elapsed)
	}
	if res.Faults.NodeFailures != 110 || res.TraceHash != 0xb523136611aa6898 {
		t.Errorf("node failures %d, trace hash %016x; want 110 and b523136611aa6898",
			res.Faults.NodeFailures, res.TraceHash)
	}
}

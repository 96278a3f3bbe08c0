package des

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestBudgetPhasesRejected: Run refuses a schedule it cannot replay
// before any event, with a *BudgetPhaseError naming the first bad phase.
func TestBudgetPhasesRejected(t *testing.T) {
	sched, w := testSched(t, 2) // 416 W ceiling
	nan, inf := math.NaN(), math.Inf(1)
	ok := BudgetPhase{Until: 100, Budget: 300}
	cases := []struct {
		name   string
		phases []BudgetPhase
		index  int
	}{
		{"until zero", []BudgetPhase{{Until: 0, Budget: 300}}, 0},
		{"until negative", []BudgetPhase{{Until: -5, Budget: 300}}, 0},
		{"until NaN", []BudgetPhase{ok, {Until: nan, Budget: 300}}, 1},
		{"until +Inf", []BudgetPhase{ok, {Until: inf, Budget: 300}}, 1},
		{"until -Inf", []BudgetPhase{{Until: -inf, Budget: 300}}, 0},
		{"until duplicate", []BudgetPhase{ok, {Until: 100, Budget: 200}}, 1},
		{"until unordered", []BudgetPhase{ok, {Until: 200, Budget: 200}, {Until: 150, Budget: 100}}, 2},
		{"budget negative", []BudgetPhase{ok, {Until: 200, Budget: -1}}, 1},
		{"budget NaN", []BudgetPhase{{Until: 100, Budget: units.Power(nan)}}, 0},
		{"budget +Inf", []BudgetPhase{{Until: 100, Budget: units.Power(inf)}}, 0},
		{"budget -Inf", []BudgetPhase{ok, {Until: 200, Budget: units.Power(-inf)}}, 1},
		{"budget above ceiling", []BudgetPhase{ok, {Until: 200, Budget: 416.5}}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, mode := range []Mode{ModeExact, ModeFast} {
				_, err := Run(Config{Sched: sched, Jobs: testJobs(w, 2, 1e12), BudgetPhases: c.phases, Mode: mode})
				var pe *BudgetPhaseError
				if !errors.Is(err, ErrBudgetPhase) || !errors.As(err, &pe) {
					t.Fatalf("%v: %v, want a *BudgetPhaseError", mode, err)
				}
				if pe.Index != c.index {
					t.Errorf("%v: %v names phase %d, want %d", mode, err, pe.Index, c.index)
				}
			}
		})
	}
	// The ceiling itself, a zero budget and a repeated budget are valid.
	valid := []BudgetPhase{{Until: 50, Budget: 416}, {Until: 60, Budget: 0}, {Until: 70, Budget: 0}, {Until: 80, Budget: 416}}
	if _, err := Run(Config{Sched: sched, Jobs: testJobs(w, 2, 1e12), BudgetPhases: valid}); err != nil {
		t.Errorf("valid schedule: %v", err)
	}
}

// TestScheduleEdges: the schedule expands into the first phase's
// shortfall at t=0 and one edge per boundary that moves the budget.
func TestScheduleEdges(t *testing.T) {
	got, err := scheduleEdges([]BudgetPhase{
		{Until: 10, Budget: 300}, {Until: 20, Budget: 300}, {Until: 30, Budget: 100}, {Until: 40, Budget: 500},
	}, 500)
	want := []faults.ShockEdge{{At: 0, Delta: -200}, {At: 20, Delta: -200}, {At: 30, Delta: 400}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("edges %v, %v; want %v", got, err, want)
	}
	if got, err := scheduleEdges([]BudgetPhase{{Until: 10, Budget: 500}, {Until: 20, Budget: 500}}, 500); got != nil || err != nil {
		t.Errorf("steady schedule expands to %v, %v", got, err)
	}
}

// TestShockEdgesScheduleFirst: a scheduled edge at the instant of an
// injected one applies first, at a drop and at a restore, in both
// modes alike.
func TestShockEdgesScheduleFirst(t *testing.T) {
	sched, w := testSched(t, 2)
	sp, err := faults.ParseSpec("shock.mtbs=120,shock.frac=0.3,shock.len=20")
	if err != nil {
		t.Fatal(err)
	}
	first := faults.NewInjector(sp, 3).BudgetShocks(3600)[0]
	end := first.At + first.Duration
	half := sched.Budget / 2
	cfg := Config{
		Sched: sched, Jobs: testJobs(w, 2, 1e14), Injector: faults.NewInjector(sp, 3), Log: &trace.EventLog{},
		BudgetPhases: []BudgetPhase{{Until: first.At, Budget: sched.Budget}, {Until: end, Budget: half}, {Until: 1e12, Budget: sched.Budget}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	injected := units.Power(sched.Budget.Watts() * first.Frac)
	want := []string{
		fmt.Sprintf("%g budget-shock pool reduced by %v", first.At, half),
		fmt.Sprintf("%g budget-shock pool reduced by %v", first.At, injected),
		fmt.Sprintf("%g budget-restore pool restored by %v", end, half),
		fmt.Sprintf("%g budget-restore pool restored by %v", end, injected),
	}
	var got []string
	for _, e := range cfg.Log.Events() {
		if e.Kind == "budget-shock" || e.Kind == "budget-restore" {
			got = append(got, fmt.Sprintf("%g %s %s", e.Time, e.Kind, e.Detail))
		}
	}
	if len(got) < len(want) || !reflect.DeepEqual(got[:len(want)], want) {
		t.Errorf("budget edges\n got %q\nwant %q first", got, want)
	}
	cfg.Mode, cfg.Log = ModeFast, nil
	fast, err := Run(cfg)
	if d := modesDiffer(res, fast); err != nil || d != "" {
		t.Errorf("fast mode: %v%s", err, d)
	}
}

// TestScheduledRestoreUnblocksStart: a first phase too small for every
// job is not starvation while a later phase raises the budget. The t=0
// drop is one engine event and one shock, counted on the shock metric,
// in both modes, and exact mode logs it.
func TestScheduledRestoreUnblocksStart(t *testing.T) {
	sched, w := testSched(t, 2)
	phases := []BudgetPhase{{Until: 30, Budget: 0}, {Until: 1e12, Budget: sched.Budget}}
	var results []Result
	reg := telemetry.New()
	Instrument(reg)
	defer Instrument(nil)
	for _, mode := range []Mode{ModeExact, ModeFast} {
		cfg := Config{Sched: sched, Jobs: testJobs(w, 2, 1e12), BudgetPhases: phases, Mode: mode}
		if mode == ModeExact {
			cfg.Log = &trace.EventLog{}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Completed != 2 || res.Faults.Shocks != 1 || res.Faults.PoolLeft != sched.Budget {
			t.Errorf("%v: completed %d, %d shocks, pool left %v", mode, res.Completed, res.Faults.Shocks, res.Faults.PoolLeft)
		}
		// The drop, the restore and two completions.
		if res.EngineEvents != 4 {
			t.Errorf("%v: %d engine events, want 4", mode, res.EngineEvents)
		}
		if mode == ModeExact {
			if first := res.Queue.Events[0]; first.Kind != "start" || first.Time != 30 {
				t.Errorf("first start %+v, want at the restore (30 s)", first)
			}
			var kinds []string
			for _, e := range cfg.Log.Events() {
				kinds = append(kinds, e.Kind)
			}
			if !reflect.DeepEqual(kinds, []string{"budget-shock", "budget-restore"}) {
				t.Errorf("log kinds %v", kinds)
			}
		}
		results = append(results, res)
	}
	if d := modesDiffer(results[0], results[1]); d != "" {
		t.Errorf("modes differ:%s", d)
	}
	shocks := 0.0
	for _, p := range reg.Snapshot().Points {
		if p.Name == "cluster_budget_shocks_total" {
			shocks = p.Value
		}
	}
	if shocks != 2 {
		t.Errorf("cluster_budget_shocks_total = %v after two runs, want 2", shocks)
	}
	// Without the restore the same start is starvation, found at t=0.
	_, err := Run(Config{Sched: sched, Jobs: testJobs(w, 2, 1e12), BudgetPhases: phases[:1]})
	if !errors.Is(err, cluster.ErrStarved) || !strings.Contains(err.Error(), "no job can start") {
		t.Errorf("final zero budget: %v, want the t=0 ErrStarved", err)
	}
}

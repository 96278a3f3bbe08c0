package faults

import (
	"math"
	"testing"

	"repro/internal/units"
)

// eagerShocks is the shock schedule generated in one pass up to the
// horizon, the way the schedule was first defined.
func eagerShocks(in *Injector, horizon float64) []Shock {
	rng := in.root.Fork("budget.shock")
	var out []Shock
	t := 0.0
	for {
		t += rng.Exp(in.spec.ShockMTBS)
		if t >= horizon || math.IsInf(t, 1) {
			return out
		}
		d := rng.Exp(in.spec.ShockLen)
		if in.spec.ShockLen <= 0 {
			d = 0
		}
		if d <= 0 {
			continue
		}
		out = append(out, Shock{At: t, Duration: d, Frac: in.spec.ShockFrac})
		t += d
	}
}

// TestShockStreamEqualsEagerSchedule: for random seeds, horizons and
// shock specs, ShockStream yields exactly the eagerly generated
// schedule, BudgetShocks collects the same, and ShockEdges expands it
// into the start/restore edge pairs in order.
func TestShockStreamEqualsEagerSchedule(t *testing.T) {
	pick := NewRNG(42)
	for trial := 0; trial < 300; trial++ {
		spec := Spec{
			ShockMTBS: 1 + 5000*pick.Float64(),
			ShockFrac: pick.Float64(),
			ShockLen:  300 * pick.Float64(),
		}
		if trial%10 == 0 {
			spec.ShockLen = 0 // zero-length shocks are dropped
		}
		horizon := math.Pow(10, 1+6*pick.Float64())
		budget := units.Power(100 + 1e5*pick.Float64())
		in := NewInjector(spec, pick.Uint64())

		want := eagerShocks(in, horizon)
		st := in.ShockStream(horizon)
		for i, w := range want {
			got, ok := st.Next()
			if !ok || got != w {
				t.Fatalf("trial %d: shock %d = %+v (ok=%v), want %+v", trial, i, got, ok, w)
			}
		}
		if got, ok := st.Next(); ok {
			t.Fatalf("trial %d: stream yields extra shock %+v past the %d expected", trial, got, len(want))
		}
		if _, ok := st.Next(); ok {
			t.Fatalf("trial %d: exhausted stream resumed", trial)
		}

		all := in.BudgetShocks(horizon)
		if len(all) != len(want) {
			t.Fatalf("trial %d: BudgetShocks has %d shocks, want %d", trial, len(all), len(want))
		}
		for i := range want {
			if all[i] != want[i] {
				t.Fatalf("trial %d: BudgetShocks[%d] = %+v, want %+v", trial, i, all[i], want[i])
			}
		}

		edges := in.ShockEdges(horizon, budget)
		for i, w := range want {
			delta := units.Power(budget.Watts() * w.Frac)
			for _, we := range []ShockEdge{{At: w.At, Delta: -delta}, {At: w.At + w.Duration, Delta: delta}} {
				peek, ok := edges.Peek()
				if !ok || peek != we {
					t.Fatalf("trial %d shock %d: Peek = %+v (ok=%v), want %+v", trial, i, peek, ok, we)
				}
				if got := edges.Pop(); got != we {
					t.Fatalf("trial %d shock %d: Pop = %+v, want %+v", trial, i, got, we)
				}
			}
		}
		if ev, ok := edges.Peek(); ok {
			t.Fatalf("trial %d: edge source yields extra edge %+v", trial, ev)
		}
	}
}

// TestShockStreamEmpty: a nil injector, a spec without shocks and a
// non-positive horizon all yield nothing, and popping an exhausted edge
// source stays exhausted.
func TestShockStreamEmpty(t *testing.T) {
	var nilInj *Injector
	for name, st := range map[string]*ShockStream{
		"nil injector": nilInj.ShockStream(1e6),
		"no shocks":    NewInjector(Spec{NodeMTBF: 10}, 1).ShockStream(1e6),
		"zero horizon": NewInjector(Spec{ShockMTBS: 10, ShockFrac: 0.5, ShockLen: 5}, 1).ShockStream(0),
	} {
		if sh, ok := st.Next(); ok {
			t.Errorf("%s: yields %+v", name, sh)
		}
	}
	edges := nilInj.ShockEdges(1e6, 500)
	if ev := edges.Pop(); ev != (ShockEdge{}) {
		t.Fatalf("exhausted Pop = %+v, want the zero edge", ev)
	}
	if ev, ok := edges.Peek(); ok {
		t.Fatalf("exhausted source yields %+v after Pop", ev)
	}
}

package faults

import (
	"fmt"
	"math"
	"reflect"
	"sort"
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
		st := in.ShockStream(Before(horizon))
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

		edges := in.ShockEdges(Before(horizon), budget)
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
		"nil injector": nilInj.ShockStream(Before(1e6)),
		"no shocks":    NewInjector(Spec{NodeMTBF: 10}, 1).ShockStream(Before(1e6)),
		"zero horizon": NewInjector(Spec{ShockMTBS: 10, ShockFrac: 0.5, ShockLen: 5}, 1).ShockStream(Before(0)),
	} {
		if sh, ok := st.Next(); ok {
			t.Errorf("%s: yields %+v", name, sh)
		}
	}
	edges := nilInj.ShockEdges(Before(1e6), 500)
	if ev := edges.Pop(); ev != (ShockEdge{}) {
		t.Fatalf("exhausted Pop = %+v, want the zero edge", ev)
	}
	if ev, ok := edges.Peek(); ok {
		t.Fatalf("exhausted source yields %+v after Pop", ev)
	}
}

// eagerOutageEdges is the merged outage schedule built in one pass up
// to the horizon, the way the schedule was first defined: every node's
// NodeOutages drawn in sorted-ID order, expanded into fail/recover
// edges, then stably sorted by time, recoveries before failures, then
// node ID.
func eagerOutageEdges(in *Injector, ids []string, horizon float64) []OutageEdge {
	if in == nil || in.spec.NodeMTBF <= 0 {
		return nil
	}
	order := make([]int32, len(ids))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return ids[order[a]] < ids[order[b]] })
	var out []OutageEdge
	for _, n := range order {
		for _, o := range in.NodeOutages(ids[n], horizon) {
			out = append(out, OutageEdge{At: o.At, Node: n})
			if !math.IsInf(o.Duration, 1) {
				out = append(out, OutageEdge{At: o.At + o.Duration, Node: n, Up: true})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Up != out[j].Up {
			return out[i].Up
		}
		return ids[out[i].Node] < ids[out[j].Node]
	})
	return out
}

// collectOutages drains a stream, checking that Peek agrees with Pop.
func collectOutages(t *testing.T, st *OutageStream) []OutageEdge {
	t.Helper()
	var out []OutageEdge
	for {
		ev, ok := st.Peek()
		if !ok {
			break
		}
		if got := st.Pop(); got != ev {
			t.Fatalf("Pop %+v after Peek %+v", got, ev)
		}
		out = append(out, ev)
	}
	if ev := st.Pop(); ev != (OutageEdge{}) {
		t.Fatalf("exhausted Pop = %+v, want the zero edge", ev)
	}
	return out
}

// TestOutageEdgesMergeOrder: the merged schedule holds exactly each
// node's NodeOutages as fail/recover edge pairs, ordered by time, then
// recoveries before failures, then node ID — whatever order the IDs
// are given in.
func TestOutageEdgesMergeOrder(t *testing.T) {
	ids := []string{"n3", "n1", "n2", "n0"}
	for _, spec := range []Spec{{NodeMTBF: 20, NodeMTTR: 10}, {NodeMTBF: 200}} {
		in := NewInjector(spec, 3)
		edges := collectOutages(t, in.OutageStream(ids, Before(500)))
		for i := 1; i < len(edges); i++ {
			a, b := edges[i-1], edges[i]
			ordered := a.At < b.At ||
				a.At == b.At && (a.Up && !b.Up || a.Up == b.Up && ids[a.Node] < ids[b.Node])
			if !ordered {
				t.Fatalf("spec %+v: edges %d,%d out of order: %+v %+v", spec, i-1, i, a, b)
			}
		}
		for n, id := range ids {
			var want, got []OutageEdge
			for _, o := range in.NodeOutages(id, 500) {
				want = append(want, OutageEdge{At: o.At, Node: int32(n)})
				if !math.IsInf(o.Duration, 1) {
					want = append(want, OutageEdge{At: o.At + o.Duration, Node: int32(n), Up: true})
				}
			}
			for _, e := range edges {
				if e.Node == int32(n) {
					got = append(got, e)
				}
			}
			if len(want) == 0 {
				t.Fatalf("spec %+v: node %s drew no outages; the test checks nothing", spec, id)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spec %+v: node %s edges %+v, want %+v", spec, id, got, want)
			}
		}
	}
	if e := collectOutages(t, (*Injector)(nil).OutageStream(ids, Before(500))); e != nil {
		t.Errorf("nil injector yielded %d edges", len(e))
	}
	if e := collectOutages(t, NewInjector(Spec{ShockMTBS: 10, ShockFrac: 0.1, ShockLen: 1}, 1).OutageStream(ids, Before(500))); e != nil {
		t.Errorf("spec without node faults yielded %d edges", len(e))
	}
}

// TestOutageStreamEqualsEagerEdges: the lazy merge yields exactly the
// eager merge's edges in the same order, over random ID lists (repeated
// IDs included, whose nodes share one schedule and so tie on every
// key), repaired and never-repaired outages, and means small enough
// next to the edge times that failures and recoveries land on equal
// times.
func TestOutageStreamEqualsEagerEdges(t *testing.T) {
	rng := NewRNG(42)
	specs := []Spec{
		{NodeMTBF: 50, NodeMTTR: 10},
		{NodeMTBF: 300},                // MTTR 0: failed nodes never return
		{NodeMTBF: 5, NodeMTTR: 1e-14}, // recoveries tie their failures
		{NodeMTBF: 1e-14, NodeMTTR: 5}, // failures tie their recoveries
		{NodeMTBF: 40, NodeMTTR: 40, ShockMTBS: 10, ShockFrac: 0.1, ShockLen: 1},
	}
	ties := 0
	for trial := 0; trial < 60; trial++ {
		ids := make([]string, 1+int(rng.Uint64()%12))
		for i := range ids {
			ids[i] = fmt.Sprintf("n%d", rng.Uint64()%8)
		}
		spec := specs[trial%len(specs)]
		in := NewInjector(spec, rng.Uint64())
		want := eagerOutageEdges(in, ids, 400)
		got := collectOutages(t, in.OutageStream(ids, Before(400)))
		if len(got) != len(want) {
			t.Fatalf("trial %d (%+v, ids %v): %d edges, eager %d", trial, spec, ids, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%+v, ids %v): edge %d = %+v, eager %+v", trial, spec, ids, i, got[i], want[i])
			}
			if i > 0 && want[i].At == want[i-1].At {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no equal-time edges drawn; the tie order is untested")
	}
}

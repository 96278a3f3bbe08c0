package faults

import (
	"math"
	"sort"

	"repro/internal/units"
)

// Shock is one facility budget shock: for Duration seconds starting at
// At, the cluster budget is reduced by Frac of its nominal value.
type Shock struct {
	At, Duration, Frac float64
}

// BudgetShocks returns the deterministic facility-shock schedule over
// [0, horizon) seconds. Shocks never overlap. It is ShockStream
// collected into a slice.
func (in *Injector) BudgetShocks(horizon float64) []Shock {
	st := in.ShockStream(horizon)
	var out []Shock
	for sh, ok := st.Next(); ok; sh, ok = st.Next() {
		out = append(out, sh)
	}
	return out
}

// ShockStream draws the facility-shock schedule one shock at a time
// from the injector's "budget.shock" stream; BudgetShocks is the same
// stream collected. A consumer that stops early never draws the rest:
// simulators size the horizon to cover any plausible makespan, far past
// the last job, so pulling on demand avoids building shocks no run
// reaches.
type ShockStream struct {
	rng          *RNG
	mtbs, length float64
	frac         float64
	horizon, t   float64
	done         bool
}

// ShockStream returns the lazy shock schedule over [0, horizon)
// seconds. A nil injector, or a spec without shocks, yields none.
func (in *Injector) ShockStream(horizon float64) *ShockStream {
	if in == nil || in.spec.ShockMTBS <= 0 || in.spec.ShockFrac <= 0 || horizon <= 0 {
		return &ShockStream{done: true}
	}
	return &ShockStream{
		rng:     in.root.Fork("budget.shock"),
		mtbs:    in.spec.ShockMTBS,
		length:  in.spec.ShockLen,
		frac:    in.spec.ShockFrac,
		horizon: horizon,
	}
}

// Next returns the next shock; ok is false once the schedule has
// reached the horizon.
func (s *ShockStream) Next() (sh Shock, ok bool) {
	for !s.done {
		s.t += s.rng.Exp(s.mtbs)
		if s.t >= s.horizon || math.IsInf(s.t, 1) {
			s.done = true
			break
		}
		d := s.rng.Exp(s.length)
		if s.length <= 0 {
			d = 0
		}
		if d <= 0 {
			continue
		}
		sh = Shock{At: s.t, Duration: d, Frac: s.frac}
		s.t += d
		return sh, true
	}
	return Shock{}, false
}

// ShockEdge is one change a budget shock makes to a cluster's power
// pool: Delta is negative at the shock's start and the matching
// positive restore at its end.
type ShockEdge struct {
	At    float64
	Delta units.Power
}

// ShockEdges is a shock schedule expanded into its pool edges in time
// order — start, restore, next start, … — against a nominal cluster
// budget. It is the event source every cluster engine replays shocks
// from: the next shock is drawn from the ShockStream only when the
// previous shock's edges have been consumed.
type ShockEdges struct {
	stream  *ShockStream
	budget  units.Power
	pending [2]ShockEdge
	head, n int
}

// ShockEdges returns the lazily expanded pool edges of the shock
// schedule over [0, horizon) for a cluster with the given budget.
func (in *Injector) ShockEdges(horizon float64, budget units.Power) *ShockEdges {
	return &ShockEdges{stream: in.ShockStream(horizon), budget: budget}
}

// Peek returns the next edge without consuming it; ok is false once
// the schedule is exhausted.
func (e *ShockEdges) Peek() (ShockEdge, bool) {
	if e.head == e.n {
		sh, ok := e.stream.Next()
		if !ok {
			return ShockEdge{}, false
		}
		delta := units.Power(e.budget.Watts() * sh.Frac)
		e.pending = [2]ShockEdge{{At: sh.At, Delta: -delta}, {At: sh.At + sh.Duration, Delta: delta}}
		e.head, e.n = 0, 2
	}
	return e.pending[e.head], true
}

// Pop consumes and returns the next edge (the zero edge once the
// schedule is exhausted).
func (e *ShockEdges) Pop() ShockEdge {
	ev, ok := e.Peek()
	if ok {
		e.head++
	}
	return ev
}

// OutageEdge is one node state change of a merged outage schedule: the
// node fails (Up false) or returns to service (Up true) at At. Node
// indexes the ID list the schedule was built from.
type OutageEdge struct {
	At   float64
	Node int32
	Up   bool
}

// OutageEdges merges the outage schedules of the nodes named by ids
// over [0, horizon) into one time-ordered edge list — the event source
// every cluster engine replays node failures from. Schedules are drawn
// per node in sorted-ID order; edges are ordered by time, recoveries
// before failures at equal times, then by node ID. A nil injector, or a
// spec without node faults, yields none.
func (in *Injector) OutageEdges(ids []string, horizon float64) []OutageEdge {
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

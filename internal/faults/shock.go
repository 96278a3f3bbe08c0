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

// Horizon decides whether a schedule edge drawn at t falls inside the
// schedule's window. A stream asks it once per draw, in draw order, and
// ends at the first edge it rules out. It may block until it can
// answer, but an answer, once given, is final: a horizon that grows as
// its caller learns more (the DES fault horizon grows with the work of
// the arrival trace drawn so far) says yes only once its bound already
// covers t, and waits for the final bound to say no. Before(h) is the
// fixed window [0, h).
type Horizon func(t float64) bool

// Before is the fixed horizon [0, h). A NaN bound rules nothing out.
func Before(h float64) Horizon {
	return func(t float64) bool { return !(t >= h) }
}

// BudgetShocks returns the deterministic facility-shock schedule over
// [0, horizon) seconds. Shocks never overlap. It is ShockStream
// collected into a slice.
func (in *Injector) BudgetShocks(horizon float64) []Shock {
	st := in.ShockStream(Before(horizon))
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
	within       Horizon
	t            float64
	done         bool
}

// ShockStream returns the lazy shock schedule over the horizon. A nil
// injector, or a spec without shocks, yields none.
func (in *Injector) ShockStream(horizon Horizon) *ShockStream {
	if in == nil || in.spec.ShockMTBS <= 0 || in.spec.ShockFrac <= 0 {
		return &ShockStream{done: true}
	}
	return &ShockStream{
		rng:    in.root.Fork("budget.shock"),
		mtbs:   in.spec.ShockMTBS,
		length: in.spec.ShockLen,
		frac:   in.spec.ShockFrac,
		within: horizon,
	}
}

// Next returns the next shock; ok is false once the schedule has
// reached the horizon.
func (s *ShockStream) Next() (sh Shock, ok bool) {
	for !s.done {
		s.t += s.rng.Exp(s.mtbs)
		if math.IsInf(s.t, 1) || !s.within(s.t) {
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
// schedule over the horizon for a cluster with the given budget.
func (in *Injector) ShockEdges(horizon Horizon, budget units.Power) *ShockEdges {
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

// OutageStream merges the outage schedules of a set of nodes into one
// time-ordered stream of edges — the event source every cluster engine
// replays node failures from. Edges are ordered by time, recoveries
// before failures at equal times, then by node ID, then by position in
// the ID list. Each node's schedule is drawn from its own stream
// (NodeOutages) one outage at a time, as the merge reaches it: engines
// size the horizon to cover any plausible makespan, far past the last
// job, so the outages beyond the run are never drawn.
type OutageStream struct {
	ids []string
	// heap holds the nodes with edges left, ordered by their next edge.
	heap []*nodeEdges
}

// nodeEdges is one node's outage schedule as a cursor: the edges at
// the time of its next edge, recoveries first, and the draw state for
// the ones after them.
type nodeEdges struct {
	node    int32
	draws   *outageDraws
	upAt    float64      // recovery of the last outage drawn
	up      bool         // upAt is pending
	look    OutageEdge   // the first edge after group
	hasLook bool         // look is set
	group   []OutageEdge // edges at the head's time; group[0] is next
}

// draw returns the node's next edge in NodeOutages order: each failure,
// then its recovery unless the node is never repaired.
func (c *nodeEdges) draw() (OutageEdge, bool) {
	if c.up {
		c.up = false
		return OutageEdge{At: c.upAt, Node: c.node, Up: true}, true
	}
	o, ok := c.draws.next()
	if !ok {
		return OutageEdge{}, false
	}
	if !math.IsInf(o.Duration, 1) {
		c.upAt, c.up = o.At+o.Duration, true
	}
	return OutageEdge{At: o.At, Node: c.node}, true
}

// advance refills group with the node's next edges that share one
// time, recoveries first, each class in draw order; false when the
// schedule is exhausted. A node's edge times never decrease, so only a
// run of equal times can need reordering.
func (c *nodeEdges) advance() bool {
	c.group = c.group[:0]
	first, ok := c.look, c.hasLook
	if !ok {
		first, ok = c.draw()
	}
	c.hasLook = false
	if !ok {
		return false
	}
	c.group = append(c.group, first)
	for {
		e, ok := c.draw()
		if !ok {
			break
		}
		if e.At != first.At {
			c.look, c.hasLook = e, true
			break
		}
		c.group = append(c.group, e)
	}
	if len(c.group) > 1 {
		sort.SliceStable(c.group, func(i, j int) bool { return c.group[i].Up && !c.group[j].Up })
	}
	return true
}

// OutageStream returns the lazily merged outage schedule of the nodes
// named by ids over the horizon; Node in its edges indexes ids. A nil
// injector, or a spec without node faults, yields none.
func (in *Injector) OutageStream(ids []string, horizon Horizon) *OutageStream {
	st := &OutageStream{ids: ids}
	if in == nil || in.spec.NodeMTBF <= 0 {
		return st
	}
	for i, id := range ids {
		c := &nodeEdges{node: int32(i), draws: in.outageDraws(id, horizon)}
		if c.advance() {
			st.heap = append(st.heap, c)
		}
	}
	for i := len(st.heap)/2 - 1; i >= 0; i-- {
		st.down(i)
	}
	return st
}

// before orders two nodes by their next edges.
func (s *OutageStream) before(a, b *nodeEdges) bool {
	x, y := a.group[0], b.group[0]
	if x.At != y.At {
		return x.At < y.At
	}
	if x.Up != y.Up {
		return x.Up
	}
	if s.ids[x.Node] != s.ids[y.Node] {
		return s.ids[x.Node] < s.ids[y.Node]
	}
	return x.Node < y.Node
}

func (s *OutageStream) down(i int) {
	h := s.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && s.before(h[r], h[c]) {
			c = r
		}
		if !s.before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Peek returns the next edge without consuming it; ok is false once
// the schedule is exhausted.
func (s *OutageStream) Peek() (OutageEdge, bool) {
	if len(s.heap) == 0 {
		return OutageEdge{}, false
	}
	return s.heap[0].group[0], true
}

// Pop consumes and returns the next edge (the zero edge once the
// schedule is exhausted).
func (s *OutageStream) Pop() OutageEdge {
	if len(s.heap) == 0 {
		return OutageEdge{}
	}
	c := s.heap[0]
	ev := c.group[0]
	if len(c.group) > 1 {
		c.group = c.group[1:]
	} else if !c.advance() {
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
	}
	s.down(0)
	return ev
}

package powertree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/units"
)

// Grant is one leaf's share of the solved tree: the power grant in
// quanta and watts, the component split COORD makes at that grant, and
// the modeled performance.
type Grant struct {
	Node     string
	Rack     string
	Platform string
	Workload string
	Priority int
	// Quanta is the grant in integer quanta; Budget is the same grant
	// in watts (exact: the quantum is dyadic). FloorQuanta is the
	// leaf's productive floor, always ≤ Quanta.
	Quanta      int64
	FloorQuanta int64
	Budget      units.Power
	// Alloc/Status/Surplus are COORD's component-level split of the
	// grant (zero for synthetic test curves).
	Alloc   core.Allocation
	Status  coord.Status
	Surplus units.Power
	// Perf is the concave-model performance at the grant.
	Perf float64
}

// ShedLeaf records one leaf dropped by admission control and why.
type ShedLeaf struct {
	Node     string
	Rack     string
	Priority int
	// FloorQuanta/Floor is the productive floor the budget could not
	// cover.
	FloorQuanta int64
	Floor       units.Power
	// Reason is "budget" (datacenter budget exhausted) or "rack-cap"
	// (the leaf's rack cap exhausted).
	Reason string
}

// RackResult aggregates one rack's share.
type RackResult struct {
	Rack string
	// Cap is the rack's local bound (0 = uncapped); CapQuanta is its
	// quantum count (0 when uncapped).
	Cap       units.Power
	CapQuanta int64
	// FloorQuanta is the sum of kept leaves' floors; Quanta/Budget the
	// rack's total grant.
	FloorQuanta int64
	Quanta      int64
	Budget      units.Power
	Kept        int
	Shed        int
}

// Result is a solved tree. Conservation holds exactly in quanta:
// GrantedQuanta + SurplusQuanta == Quanta, each rack's Quanta is the
// sum of its leaves' grants, and GrantedQuanta is the sum over racks.
type Result struct {
	// Budget is the datacenter budget; Quanta its quantum count.
	Budget units.Power
	Quanta int64
	// GrantedQuanta/Granted is the power handed down to leaves;
	// SurplusQuanta/Surplus is the root-level remainder.
	GrantedQuanta int64
	Granted       units.Power
	SurplusQuanta int64
	Surplus       units.Power
	// TotalPerf is the summed modeled performance of kept leaves.
	TotalPerf float64
	// Oversubscription is aggregate leaf demand over the budget
	// (0 when the budget is zero): > 1 means the fleet is provisioned
	// above the bound and relies on reclaim/shedding.
	Oversubscription float64
	// Grants lists kept leaves in spec order; Racks the per-rack
	// aggregates in spec order; Shed the dropped leaves in shed order
	// (lowest priority first).
	Grants []Grant
	Racks  []RackResult
	Shed   []ShedLeaf
}

// leafState is the solver's working record for one leaf.
type leafState struct {
	node   *Node
	rack   int
	curve  *curve
	ci     int32 // curve's index in solver.curves
	kept   bool
	reason string
	perf   float64
}

// solver holds one solve's working state. Leaf-indexed slices share
// the index of leaves; curve-indexed ones that of curves.
type solver struct {
	leaves []leafState
	// curves are the distinct curves in play (leaves running the same
	// pair share one); span is each one's total segment width.
	curves []*curve
	span   []int64
	// levels are the curves' distinct slopes, steepest first: the
	// candidate water levels of every fill.
	levels []float64
	// limit is each kept leaf's room beyond its floor under its rack
	// cap; take its grant beyond the floor.
	limit, take []int64
	// above and atOrAbove are per-curve scratch: the width of a curve's
	// segments steeper than, and at least as steep as, a probed level.
	above, atOrAbove []int64
}

// Solve builds the spec's curves and divides the datacenter budget down
// the tree. Use BuildCurves + SolveCurves to amortize curve
// construction across many budgets.
func Solve(spec Spec, budget units.Power) (*Result, error) {
	cs, err := BuildCurves(spec) // validates the spec
	if err != nil {
		return nil, err
	}
	return solveCurves(cs, spec, budget)
}

// SolveCurves divides budget down the tree using prebuilt curves. The
// algorithm is water-filling per FastCap. Its result is exactly that of
// one greedy walk handing the budget out segment by segment, in
// (slope desc, node ID asc, segment asc) order:
//
//  1. Shedding (admission control): walk leaves in (priority desc,
//     node ID asc) order and keep each whose productive floor still
//     fits under both the remaining datacenter budget and its rack's
//     remaining cap. The shed set is minimal — no shed leaf's floor
//     fits in what is left.
//  2. Rack truncation: a capped rack water-fills cap − rackFloor over
//     its kept leaves, and each leaf's share is its limit, so a
//     rack-capped watt is never granted. Uncapped racks set no limit.
//  3. Global fill: water-fill the budget beyond the kept floors over
//     every kept leaf's curve, truncated at its limit.
//
// A water-fill finds the level λ at which the budget runs out: segments
// steeper than λ are granted in full, flatter ones get nothing, and the
// segments at λ share what is left in (node ID, segment) order — the
// walk's tie order. For concave curves the fill is exactly optimal, and
// every leaf's grant is a prefix of its curve.
//
// All arithmetic is in integer quanta; the returned Result conserves
// the budget exactly at every interior node.
func SolveCurves(cs *CurveSet, spec Spec, budget units.Power) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return solveCurves(cs, spec, budget)
}

// solveCurves is SolveCurves on a validated spec.
func solveCurves(cs *CurveSet, spec Spec, budget units.Power) (*Result, error) {
	w := budget.Watts()
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return nil, fmt.Errorf("powertree: budget %v is not a non-negative finite power", budget)
	}
	rootQ := toQuanta(budget)

	// Collect leaves, their distinct curves and per-rack caps.
	s := &solver{leaves: make([]leafState, 0, spec.Leaves())}
	curveIdx := map[*curve]int32{}
	capQ := make([]int64, len(spec.Racks))
	for ri := range spec.Racks {
		r := &spec.Racks[ri]
		if r.Cap > 0 {
			capQ[ri] = toQuanta(r.Cap)
		} else {
			capQ[ri] = -1 // uncapped
		}
		for ni := range r.Nodes {
			c, err := cs.curveFor(&r.Nodes[ni])
			if err != nil {
				return nil, err
			}
			ci, ok := curveIdx[c]
			if !ok {
				ci = int32(len(s.curves))
				curveIdx[c] = ci
				s.curves = append(s.curves, c)
			}
			s.leaves = append(s.leaves, leafState{node: &r.Nodes[ni], rack: ri, curve: c, ci: ci})
		}
	}
	leaves := s.leaves
	byID := rankByID(leaves)

	// Pass 1 — shedding. Priority desc, node ID asc; a leaf is kept iff
	// its floor fits in both remaining pools at its turn.
	keptGlobalQ := int64(0)
	keptRackQ := make([]int64, len(spec.Racks))
	var shedOrder []int32
	for _, li := range shedWalk(leaves, byID) {
		l := &leaves[li]
		fq := l.curve.floorQ
		switch {
		case keptGlobalQ+fq > rootQ:
			l.reason = "budget"
		case capQ[l.rack] >= 0 && keptRackQ[l.rack]+fq > capQ[l.rack]:
			l.reason = "rack-cap"
		default:
			l.kept = true
			keptGlobalQ += fq
			keptRackQ[l.rack] += fq
		}
		if !l.kept {
			shedOrder = append(shedOrder, li)
		}
	}

	// Pass 2 — rack truncation: each capped rack's fill of its headroom
	// sets its kept leaves' limits. Members of a fill are listed in
	// node-ID order, its tie order.
	s.prepare()
	kept := make([]int32, 0, len(leaves))
	rackKept := make([][]int32, len(spec.Racks))
	for _, li := range byID {
		l := &leaves[li]
		if !l.kept {
			continue
		}
		kept = append(kept, li)
		s.limit[li] = s.span[l.ci]
		if capQ[l.rack] >= 0 {
			rackKept[l.rack] = append(rackKept[l.rack], li)
		}
	}
	for ri, members := range rackKept {
		if capQ[ri] >= 0 {
			s.fill(members, s.limit, capQ[ri]-keptRackQ[ri])
		}
	}

	// Pass 3 — the global fill of the budget beyond the floors.
	s.fill(kept, s.take, rootQ-keptGlobalQ)

	// Assemble the result in spec order.
	res := &Result{Budget: budget, Quanta: rootQ, Grants: make([]Grant, 0, len(kept))}
	res.Racks = make([]RackResult, len(spec.Racks))
	demandQ := int64(0)
	for ri := range spec.Racks {
		rr := &res.Racks[ri]
		rr.Rack = spec.Racks[ri].ID
		rr.Cap = spec.Racks[ri].Cap
		if capQ[ri] >= 0 {
			rr.CapQuanta = capQ[ri]
		}
	}
	for li := range leaves {
		l := &leaves[li]
		demandQ += l.curve.maxQ
		if !l.kept {
			continue
		}
		grantQ := l.curve.floorQ + s.take[li]
		l.perf = l.curve.perfAt(grantQ)
		g := Grant{
			Node:        l.node.ID,
			Rack:        spec.Racks[l.rack].ID,
			Platform:    l.node.Platform.Name,
			Workload:    l.node.Workload.Name,
			Priority:    l.node.Priority,
			Quanta:      grantQ,
			FloorQuanta: l.curve.floorQ,
			Budget:      watts(grantQ),
			Perf:        l.perf,
		}
		switch {
		case l.curve.cpuProf != nil:
			d := coord.CPU(*l.curve.cpuProf, g.Budget)
			g.Alloc, g.Status, g.Surplus = d.Alloc, d.Status, d.Surplus
		case l.curve.gpuProf != nil:
			d := coord.GPU(*l.curve.gpuProf, g.Budget, coord.DefaultGamma)
			g.Alloc, g.Status, g.Surplus = d.Alloc, d.Status, d.Surplus
		}
		res.Grants = append(res.Grants, g)
		rr := &res.Racks[l.rack]
		rr.FloorQuanta += l.curve.floorQ
		rr.Quanta += grantQ
		rr.Kept++
		res.GrantedQuanta += grantQ
	}
	// Sum performance in node-ID order so the float total is identical
	// under sibling permutation (addition order independence).
	for _, li := range kept {
		res.TotalPerf += leaves[li].perf
	}
	for ri := range res.Racks {
		res.Racks[ri].Budget = watts(res.Racks[ri].Quanta)
	}
	for _, li := range shedOrder {
		l := &leaves[li]
		res.Shed = append(res.Shed, ShedLeaf{
			Node:        l.node.ID,
			Rack:        spec.Racks[l.rack].ID,
			Priority:    l.node.Priority,
			FloorQuanta: l.curve.floorQ,
			Floor:       watts(l.curve.floorQ),
			Reason:      l.reason,
		})
		res.Racks[l.rack].Shed++
	}
	res.Granted = watts(res.GrantedQuanta)
	res.SurplusQuanta = rootQ - res.GrantedQuanta
	res.Surplus = watts(res.SurplusQuanta)
	if rootQ > 0 {
		res.Oversubscription = float64(demandQ) / float64(rootQ)
	}
	return res, nil
}

// rankByID lists leaf indices in node-ID order. IDs are unique, so the
// order is total; a spec already in ID order skips the sort.
func rankByID(leaves []leafState) []int32 {
	byID := make([]int32, len(leaves))
	sorted := true
	for i := range byID {
		byID[i] = int32(i)
		if i > 0 && leaves[i].node.ID < leaves[i-1].node.ID {
			sorted = false
		}
	}
	if !sorted {
		slices.SortFunc(byID, func(a, b int32) int {
			return strings.Compare(leaves[a].node.ID, leaves[b].node.ID)
		})
	}
	return byID
}

// shedWalk lists leaf indices in shedding order: priority desc, then
// node ID asc. Each key packs the inverted priority (Validate bounds it
// to [0, maxPriority]) above the leaf's node-ID rank, so one integer
// sort orders both.
func shedWalk(leaves []leafState, byID []int32) []int32 {
	keys := make([]uint64, len(byID))
	for rank, li := range byID {
		keys[rank] = uint64(maxPriority-leaves[li].node.Priority)<<32 | uint64(rank)
	}
	slices.Sort(keys)
	order := make([]int32, len(keys))
	for i, k := range keys {
		order[i] = byID[uint32(k)]
	}
	return order
}

// prepare sizes the fill state: each curve's span and the candidate
// water levels, the distinct slopes of the curves in play.
func (s *solver) prepare() {
	nc := len(s.curves)
	s.span = make([]int64, nc)
	s.above = make([]int64, nc)
	s.atOrAbove = make([]int64, nc)
	for ci, c := range s.curves {
		for _, seg := range c.segs {
			s.span[ci] += seg.width
			s.levels = append(s.levels, seg.slope)
		}
	}
	slices.Sort(s.levels)
	s.levels = slices.Compact(s.levels)
	slices.Reverse(s.levels)
	s.limit = make([]int64, len(s.leaves))
	s.take = make([]int64, len(s.leaves))
}

// probe sets above and atOrAbove for level: per curve, the width of its
// segments steeper than level and at least as steep. A concave curve's
// slopes do not increase, so both are prefixes.
func (s *solver) probe(level float64) {
	for ci, c := range s.curves {
		var gt, ge int64
		for _, seg := range c.segs {
			if seg.slope < level {
				break
			}
			if seg.slope > level {
				gt += seg.width
			}
			ge += seg.width
		}
		s.above[ci], s.atOrAbove[ci] = gt, ge
	}
}

// supply is how much members (each truncated at its limit) offer at
// slopes at least as steep as level.
func (s *solver) supply(members []int32, level float64) int64 {
	s.probe(level)
	total := int64(0)
	for _, li := range members {
		total += min(s.limit[li], s.atOrAbove[s.leaves[li].ci])
	}
	return total
}

// fill water-fills spend quanta over members, leaf indices in node-ID
// order, each curve truncated at the leaf's limit, and writes each
// member's grant to out. out may be s.limit itself: a member's limit is
// read before its grant is written.
func (s *solver) fill(members []int32, out []int64, spend int64) {
	total := int64(0)
	for _, li := range members {
		total += s.limit[li]
	}
	if total <= spend {
		for _, li := range members {
			out[li] = s.limit[li]
		}
		return
	}
	if spend <= 0 {
		for _, li := range members {
			out[li] = 0
		}
		return
	}
	// The water level is the steepest slope at which supply meets
	// spend; it exists because the flattest level offers total > spend.
	j := sort.Search(len(s.levels), func(j int) bool { return s.supply(members, s.levels[j]) >= spend })
	s.probe(s.levels[j])
	// Segments above the level are granted in full; those at it share
	// the rest in node-ID order.
	left := spend
	for _, li := range members {
		left -= min(s.limit[li], s.above[s.leaves[li].ci])
	}
	for _, li := range members {
		ci := s.leaves[li].ci
		hi := min(s.limit[li], s.above[ci])
		give := min(min(s.limit[li], s.atOrAbove[ci])-hi, left)
		out[li] = hi + give
		left -= give
	}
}

// g formats a float canonically for golden comparisons.
func gfmt(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// String renders the result canonically and deterministically — the
// same solve always produces the same bytes, which the golden
// serial-vs-parallel identity tests compare directly.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tree budget=%sW quanta=%d granted=%d surplus=%d perf=%s oversub=%s\n",
		gfmt(r.Budget.Watts()), r.Quanta, r.GrantedQuanta, r.SurplusQuanta,
		gfmt(r.TotalPerf), gfmt(r.Oversubscription))
	for i := range r.Racks {
		rr := &r.Racks[i]
		cap := "none"
		if rr.Cap > 0 {
			cap = gfmt(rr.Cap.Watts()) + "W"
		}
		fmt.Fprintf(&b, "rack %s cap=%s floorq=%d quanta=%d kept=%d shed=%d\n",
			rr.Rack, cap, rr.FloorQuanta, rr.Quanta, rr.Kept, rr.Shed)
	}
	for i := range r.Grants {
		g := &r.Grants[i]
		fmt.Fprintf(&b, "grant %s rack=%s prio=%d q=%d budget=%sW proc=%sW mem=%sW status=%s surplus=%sW perf=%s\n",
			g.Node, g.Rack, g.Priority, g.Quanta, gfmt(g.Budget.Watts()),
			gfmt(g.Alloc.Proc.Watts()), gfmt(g.Alloc.Mem.Watts()),
			g.Status, gfmt(g.Surplus.Watts()), gfmt(g.Perf))
	}
	for i := range r.Shed {
		s := &r.Shed[i]
		fmt.Fprintf(&b, "shed %s rack=%s prio=%d floorq=%d reason=%s\n",
			s.Node, s.Rack, s.Priority, s.FloorQuanta, s.Reason)
	}
	return b.String()
}

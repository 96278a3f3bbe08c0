package powertree

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/coord"
	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// heteroSpecString is the canonical 2-rack heterogeneous topology the
// issue's acceptance criteria name: IvyBridge + Haswell CPUs beside a
// capped GPU rack mixing two card generations.
const heteroSpecString = "cpu=ivybridge/stream*2^2,haswell/dgemm^1;gpu@450=titanxp/sgemm^1,titanv/gpustream"

var heteroOnce struct {
	sync.Once
	spec Spec
	cs   *CurveSet
	err  error
}

// hetero builds (once) the shared heterogeneous spec and its curves.
func hetero(t *testing.T) (Spec, *CurveSet) {
	t.Helper()
	heteroOnce.Do(func() {
		heteroOnce.spec, heteroOnce.err = ParseTreeSpec(heteroSpecString)
		if heteroOnce.err != nil {
			return
		}
		heteroOnce.cs, heteroOnce.err = BuildCurves(heteroOnce.spec)
	})
	if heteroOnce.err != nil {
		t.Fatalf("hetero fixture: %v", heteroOnce.err)
	}
	return heteroOnce.spec, heteroOnce.cs
}

// specFloors sums floor and max quanta over all leaves.
func specFloors(t *testing.T, spec Spec, cs *CurveSet) (floorQ, maxQ int64) {
	t.Helper()
	for ri := range spec.Racks {
		for ni := range spec.Racks[ri].Nodes {
			c, err := cs.curveFor(&spec.Racks[ri].Nodes[ni])
			if err != nil {
				t.Fatal(err)
			}
			floorQ += c.floorQ
			maxQ += c.maxQ
		}
	}
	return floorQ, maxQ
}

// budgetGrid spans 0 → beyond aggregate demand in n steps.
func budgetGrid(maxQ int64, n int) []units.Power {
	grid := make([]units.Power, 0, n)
	top := maxQ + maxQ/5 + 8
	for i := 0; i < n; i++ {
		grid = append(grid, watts(top*int64(i)/int64(n-1)))
	}
	return grid
}

// checkConservation asserts the integer conservation identities of one
// solved tree; shared with the invariant harness's logic.
func checkConservation(t *testing.T, spec Spec, cs *CurveSet, res *Result) {
	t.Helper()
	if res.GrantedQuanta+res.SurplusQuanta != res.Quanta {
		t.Errorf("budget %v: granted %d + surplus %d != root %d",
			res.Budget, res.GrantedQuanta, res.SurplusQuanta, res.Quanta)
	}
	if res.SurplusQuanta < 0 {
		t.Errorf("budget %v: negative surplus %d", res.Budget, res.SurplusQuanta)
	}
	rackSum := int64(0)
	perRack := map[string]int64{}
	for _, g := range res.Grants {
		perRack[g.Rack] += g.Quanta
	}
	for _, rr := range res.Racks {
		if perRack[rr.Rack] != rr.Quanta {
			t.Errorf("budget %v: rack %s quanta %d != leaf sum %d",
				res.Budget, rr.Rack, rr.Quanta, perRack[rr.Rack])
		}
		if rr.CapQuanta > 0 && rr.Quanta > rr.CapQuanta {
			t.Errorf("budget %v: rack %s granted %d over cap %d",
				res.Budget, rr.Rack, rr.Quanta, rr.CapQuanta)
		}
		rackSum += rr.Quanta
	}
	if rackSum != res.GrantedQuanta {
		t.Errorf("budget %v: rack sum %d != granted %d", res.Budget, rackSum, res.GrantedQuanta)
	}
	// Per-leaf bounds: every grant within [floor, max] of its curve.
	byID := map[string]*Node{}
	for ri := range spec.Racks {
		for ni := range spec.Racks[ri].Nodes {
			byID[spec.Racks[ri].Nodes[ni].ID] = &spec.Racks[ri].Nodes[ni]
		}
	}
	if len(res.Grants)+len(res.Shed) != len(byID) {
		t.Errorf("budget %v: %d grants + %d shed != %d leaves",
			res.Budget, len(res.Grants), len(res.Shed), len(byID))
	}
	for _, g := range res.Grants {
		c, err := cs.curveFor(byID[g.Node])
		if err != nil {
			t.Fatal(err)
		}
		if g.Quanta < c.floorQ || g.Quanta > c.maxQ {
			t.Errorf("budget %v: grant %s q=%d outside [%d, %d]",
				res.Budget, g.Node, g.Quanta, c.floorQ, c.maxQ)
		}
	}
}

// checkShedMinimal asserts no shed leaf could be re-admitted: its floor
// exceeds the remaining global headroom over kept floors, or its rack's
// remaining cap headroom.
func checkShedMinimal(t *testing.T, spec Spec, cs *CurveSet, res *Result) {
	t.Helper()
	keptFloorQ := int64(0)
	rackFloorQ := map[string]int64{}
	for _, rr := range res.Racks {
		keptFloorQ += rr.FloorQuanta
		rackFloorQ[rr.Rack] = rr.FloorQuanta
	}
	capQ := map[string]int64{}
	for _, rr := range res.Racks {
		if rr.Cap > 0 {
			capQ[rr.Rack] = rr.CapQuanta
		} else {
			capQ[rr.Rack] = -1
		}
	}
	for _, s := range res.Shed {
		overBudget := keptFloorQ+s.FloorQuanta > res.Quanta
		overRack := capQ[s.Rack] >= 0 && rackFloorQ[s.Rack]+s.FloorQuanta > capQ[s.Rack]
		if !overBudget && !overRack {
			t.Errorf("budget %v: shed leaf %s (floor %d) is re-admissible: kept floors %d, root %d, rack floors %d, cap %d",
				res.Budget, s.Node, s.FloorQuanta, keptFloorQ, res.Quanta, rackFloorQ[s.Rack], capQ[s.Rack])
		}
	}
}

func TestSolveConservationHetero(t *testing.T) {
	spec, cs := hetero(t)
	_, maxQ := specFloors(t, spec, cs)
	for _, b := range budgetGrid(maxQ, 33) {
		res, err := SolveCurves(cs, spec, b)
		if err != nil {
			t.Fatalf("SolveCurves(%v): %v", b, err)
		}
		checkConservation(t, spec, cs, res)
		checkShedMinimal(t, spec, cs, res)
	}
}

func TestSolveMonotoneHetero(t *testing.T) {
	spec, cs := hetero(t)
	floorQ, maxQ := specFloors(t, spec, cs)
	prevGranted := int64(-1)
	prevPerf := -1.0
	for _, b := range budgetGrid(maxQ, 65) {
		res, err := SolveCurves(cs, spec, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.GrantedQuanta < prevGranted {
			t.Errorf("granted power not monotone: %d quanta after %d at budget %v",
				res.GrantedQuanta, prevGranted, b)
		}
		prevGranted = res.GrantedQuanta
		if res.Quanta >= floorQ {
			// Shed-free regime: total performance must be monotone.
			if len(res.Shed) != 0 {
				t.Errorf("budget %v covers all floors (%d >= %d) but shed %d leaves",
					b, res.Quanta, floorQ, len(res.Shed))
			}
			if res.TotalPerf < prevPerf {
				t.Errorf("perf not monotone in shed-free regime: %g after %g at budget %v",
					res.TotalPerf, prevPerf, b)
			}
			prevPerf = res.TotalPerf
		}
	}
}

func TestSolveShedPriorities(t *testing.T) {
	spec, cs := hetero(t)
	floorQ, _ := specFloors(t, spec, cs)
	// Just below the aggregate floor: someone must be shed, and every
	// budget-shed leaf must be blocked by its seniors' floors (greedy
	// admission order: priority desc, node ID asc) — never skipped in
	// favor of a junior.
	res, err := SolveCurves(cs, spec, watts(floorQ-1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shed) == 0 {
		t.Fatal("budget below aggregate floor shed nothing")
	}
	for _, s := range res.Shed {
		if s.Reason != "budget" {
			continue
		}
		blockQ := int64(0)
		for _, g := range res.Grants {
			if g.Priority > s.Priority || (g.Priority == s.Priority && g.Node < s.Node) {
				blockQ += g.FloorQuanta
			}
		}
		if blockQ+s.FloorQuanta <= res.Quanta {
			t.Errorf("budget-shed leaf %s (prio %d, floor %d) fits after its seniors' floors (%d of %d quanta)",
				s.Node, s.Priority, s.FloorQuanta, blockQ, res.Quanta)
		}
	}
}

func TestSolveZeroBudget(t *testing.T) {
	spec, cs := hetero(t)
	res, err := SolveCurves(cs, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grants) != 0 || res.GrantedQuanta != 0 {
		t.Fatalf("zero budget granted %d quanta to %d leaves", res.GrantedQuanta, len(res.Grants))
	}
	if len(res.Shed) != spec.Leaves() {
		t.Fatalf("zero budget shed %d of %d leaves", len(res.Shed), spec.Leaves())
	}
	for _, s := range res.Shed {
		if s.Reason != "budget" {
			t.Errorf("zero-budget shed reason %q, want budget", s.Reason)
		}
	}
	if res.Oversubscription != 0 {
		t.Errorf("zero budget oversubscription = %g, want 0", res.Oversubscription)
	}
}

func TestSolveSurplus(t *testing.T) {
	spec, cs := hetero(t)
	_, maxQ := specFloors(t, spec, cs)
	// Note the GPU rack cap binds before leaf demand: compute the
	// capped capacity instead of raw demand.
	res, err := SolveCurves(cs, spec, watts(maxQ+400))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shed) != 0 {
		t.Fatalf("abundant budget shed %d leaves", len(res.Shed))
	}
	if res.SurplusQuanta < 400 {
		t.Errorf("surplus %d quanta, want >= 400 (budget exceeds demand by 100W)", res.SurplusQuanta)
	}
	if res.Oversubscription >= 1 {
		t.Errorf("oversubscription %g at abundant budget, want < 1", res.Oversubscription)
	}
	// The capped rack must respect its cap even under abundance.
	for _, rr := range res.Racks {
		if rr.CapQuanta > 0 && rr.Quanta > rr.CapQuanta {
			t.Errorf("rack %s granted %d over cap %d", rr.Rack, rr.Quanta, rr.CapQuanta)
		}
	}
}

// synthBuilder hands out distinct (platform, workload) pairs so tests
// can attach a private hand-made curve to each leaf.
type synthBuilder struct {
	t    *testing.T
	cs   *CurveSet
	next int
}

var synthPairs = []string{"stream", "dgemm", "bt", "sp", "lu", "ep", "is", "cg", "ft", "mg", "sra"}

func newSynth(t *testing.T) *synthBuilder {
	return &synthBuilder{t: t, cs: &CurveSet{}}
}

func (b *synthBuilder) leaf(id string, prio int, c curve) Node {
	b.t.Helper()
	if b.next >= len(synthPairs) {
		b.t.Fatal("synthBuilder out of distinct workloads")
	}
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		b.t.Fatal(err)
	}
	w, err := workload.ByName(synthPairs[b.next])
	if err != nil {
		b.t.Fatal(err)
	}
	b.next++
	c.kind = hw.KindCPU
	c.maxQ = c.floorQ
	for _, s := range c.segs {
		c.maxQ += s.width
	}
	b.cs.add(p, w, &c)
	return Node{ID: id, Platform: p, Workload: w, Priority: prio}
}

func TestWaterFillingKnownAnswer(t *testing.T) {
	b := newSynth(t)
	// A: floor 10, 20 quanta at slope 2. B: floor 5, 20 quanta at
	// slope 1. Budget 40 → floors 15, spend 25 → A fills fully (20),
	// B gets the remaining 5.
	a := b.leaf("a", 0, curve{floorQ: 10, base: 1, segs: []segment{{width: 20, slope: 2}}})
	bb := b.leaf("b", 0, curve{floorQ: 5, base: 1, segs: []segment{{width: 20, slope: 1}}})
	spec := Spec{Racks: []Rack{{ID: "r", Nodes: []Node{a, bb}}}}
	res, err := SolveCurves(b.cs, spec, watts(40))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, g := range res.Grants {
		got[g.Node] = g.Quanta
	}
	if got["a"] != 30 || got["b"] != 10 {
		t.Fatalf("grants = %v, want a=30 b=10", got)
	}
	if res.SurplusQuanta != 0 {
		t.Errorf("surplus = %d, want 0", res.SurplusQuanta)
	}
	wantPerf := 1.0 + 20*2 + 1.0 + 5*1
	if res.TotalPerf != wantPerf {
		t.Errorf("perf = %g, want %g", res.TotalPerf, wantPerf)
	}
}

func TestRackCapTruncation(t *testing.T) {
	b := newSynth(t)
	// Rack capped at 18 quanta (4.5 W): floors 10+5, leaving 3 quanta
	// of headroom even though the budget could fill 40.
	a := b.leaf("a", 0, curve{floorQ: 10, segs: []segment{{width: 20, slope: 2}}})
	bb := b.leaf("b", 0, curve{floorQ: 5, segs: []segment{{width: 20, slope: 1}}})
	spec := Spec{Racks: []Rack{{ID: "r", Cap: watts(18), Nodes: []Node{a, bb}}}}
	res, err := SolveCurves(b.cs, spec, watts(40))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, g := range res.Grants {
		got[g.Node] = g.Quanta
	}
	// All 3 headroom quanta go to the steeper curve a.
	if got["a"] != 13 || got["b"] != 5 {
		t.Fatalf("grants = %v, want a=13 b=5", got)
	}
	if res.GrantedQuanta != 18 || res.SurplusQuanta != 22 {
		t.Errorf("granted/surplus = %d/%d, want 18/22", res.GrantedQuanta, res.SurplusQuanta)
	}
}

func TestGreedyMatchesBruteForce(t *testing.T) {
	b := newSynth(t)
	// Three small concave curves; exhaustive search over the quanta
	// grid must not beat the water-filling fill at any budget.
	nodes := []Node{
		b.leaf("a", 0, curve{floorQ: 3, base: 5, segs: []segment{{width: 4, slope: 3}, {width: 5, slope: 1}}}),
		b.leaf("b", 0, curve{floorQ: 2, base: 2, segs: []segment{{width: 6, slope: 2.5}, {width: 2, slope: 0.5}}}),
		b.leaf("c", 0, curve{floorQ: 4, base: 7, segs: []segment{{width: 3, slope: 2}}}),
	}
	spec := Spec{Racks: []Rack{{ID: "r", Nodes: nodes}}}
	curves := make([]*curve, len(nodes))
	for i := range nodes {
		c, err := b.cs.curveFor(&nodes[i])
		if err != nil {
			t.Fatal(err)
		}
		curves[i] = c
	}
	for rootQ := int64(9); rootQ <= 30; rootQ++ {
		res, err := SolveCurves(b.cs, spec, watts(rootQ))
		if err != nil {
			t.Fatal(err)
		}
		best := 0.0
		for qa := curves[0].floorQ; qa <= curves[0].maxQ; qa++ {
			for qb := curves[1].floorQ; qb <= curves[1].maxQ; qb++ {
				for qc := curves[2].floorQ; qc <= curves[2].maxQ; qc++ {
					if qa+qb+qc > rootQ {
						continue
					}
					perf := curves[0].perfAt(qa) + curves[1].perfAt(qb) + curves[2].perfAt(qc)
					if perf > best {
						best = perf
					}
				}
			}
		}
		if len(res.Shed) > 0 {
			continue // brute force above assumes all kept
		}
		if res.TotalPerf < best-1e-9 {
			t.Errorf("rootQ %d: greedy perf %g below brute-force optimum %g", rootQ, res.TotalPerf, best)
		}
	}
}

func TestSolveRejectsBadBudget(t *testing.T) {
	spec, cs := hetero(t)
	for _, b := range []units.Power{units.Power(-1), units.Power(nan()), units.Power(inf())} {
		if _, err := SolveCurves(cs, spec, b); err == nil {
			t.Errorf("SolveCurves(%v): want error", b)
		}
	}
}

func nan() float64 { return f64div(0, 0) }
func inf() float64 { return f64div(1, 0) }

// f64div defeats constant folding errors for 0/0 and 1/0.
func f64div(a, b float64) float64 { return a / b }

// TestPhasedMLCurveSampling threads the H100-class platforms and the
// phased ML-inference workloads through curve sampling and the
// water-fill: an H100/H200 serving rack must build concave curves with
// the settable cap floor as its quantum floor, conserve quanta across
// the budget grid, and grant monotonically increasing performance.
func TestPhasedMLCurveSampling(t *testing.T) {
	spec, err := ParseTreeSpec("serve=h100/llmserve*2^2,h100/llmbatch^1;chat@900=h200/llmchat*2")
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	cs, err := BuildCurves(spec)
	if err != nil {
		t.Fatalf("BuildCurves: %v", err)
	}

	// Each leaf curve must floor at the card's settable cap, not the
	// memory floor: an H100 cannot be capped below 200 W.
	for ri := range spec.Racks {
		for ni := range spec.Racks[ri].Nodes {
			n := &spec.Racks[ri].Nodes[ni]
			c, err := cs.curveFor(n)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := c.floorQ, ceilQuanta(n.Platform.GPU.MinCap); got != want {
				t.Errorf("%s/%s floor %d quanta, want the cap floor %d",
					n.Platform.Name, n.Workload.Name, got, want)
			}
			if c.maxQ <= c.floorQ {
				t.Errorf("%s/%s has a degenerate curve (max %d <= floor %d)",
					n.Platform.Name, n.Workload.Name, c.maxQ, c.floorQ)
			}
			if !(c.perfAt(c.maxQ) > c.perfAt(c.floorQ)) {
				t.Errorf("%s/%s curve is flat: perf %g at floor, %g at max",
					n.Platform.Name, n.Workload.Name, c.perfAt(c.floorQ), c.perfAt(c.maxQ))
			}
		}
	}

	floorQ, maxQ := specFloors(t, spec, cs)
	prevPerf := -1.0
	for _, b := range budgetGrid(maxQ, 33) {
		res, err := SolveCurves(cs, spec, b)
		if err != nil {
			t.Fatalf("SolveCurves(%v): %v", b, err)
		}
		checkConservation(t, spec, cs, res)
		if res.Quanta >= floorQ {
			if len(res.Shed) != 0 {
				t.Errorf("budget %v covers all floors but shed %d leaves", b, len(res.Shed))
			}
			if res.TotalPerf < prevPerf {
				t.Errorf("perf not monotone: %g after %g at budget %v", res.TotalPerf, prevPerf, b)
			}
			prevPerf = res.TotalPerf
		}
	}
	if !(prevPerf > 0) {
		t.Fatalf("phased ML tree never produced positive performance (last %g)", prevPerf)
	}
}

// TestSolveMatchesSortedGreedy compares the water-fill against the
// sort-based greedy reference, byte for byte, at every quantum budget:
// on random synthetic trees, on the heterogeneous fixture, and on the
// 4096-leaf simulate tree at its four round budgets.
func TestSolveMatchesSortedGreedy(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 4))
	buf := make([]byte, 256)
	for i := 0; i < 300 && !t.Failed(); i++ {
		for j := range buf {
			buf[j] = byte(rng.Uint32())
		}
		cs, spec := randomTree(t, &byteSource{buf})
		compareWithSortedGreedy(t, cs, spec)
	}

	spec, cs := hetero(t)
	compareWithSortedGreedy(t, cs, spec)

	big := benchTree(t, 4096)
	bigCurves, err := BuildCurves(big)
	if err != nil {
		t.Fatal(err)
	}
	for level := 0; level < 4; level++ {
		compareAtBudget(t, bigCurves, big, benchBudget(4096, level))
	}
}

// FuzzSolveMatchesSortedGreedy decodes a synthetic tree from the input
// and compares the water-fill against the sorted greedy at every
// quantum budget.
func FuzzSolveMatchesSortedGreedy(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 0, 1, 4, 0, 5, 0, 2, 9, 1, 3, 0, 2, 1, 1})
	f.Add([]byte{5, 12, 2, 0, 4, 0, 3, 1, 2, 1, 0, 0, 2, 40, 4, 7, 1, 2, 2, 0, 3, 5, 1, 1, 2, 0, 9, 3})
	f.Add([]byte("water level ties at zero slope under a tight rack cap"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, spec := randomTree(t, &byteSource{data})
		compareWithSortedGreedy(t, cs, spec)
	})
}

// The sort-based greedy below is the reference the water-fill must
// reproduce byte for byte: every kept leaf's marginal segments, sorted
// by (slope desc, node ID asc, segment asc), truncated per capped rack
// at cap − rackFloor, then merged and walked with the budget beyond the
// floors.

// fillItem is one curve segment in a fill queue.
type fillItem struct {
	leaf  int
	seg   int
	width int64
	slope float64
	id    string
}

func sortFill(items []fillItem) {
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.slope != b.slope {
			return a.slope > b.slope
		}
		if a.id != b.id {
			return a.id < b.id
		}
		return a.seg < b.seg
	})
}

// refLeaf is the reference solver's working record for one leaf.
type refLeaf struct {
	node   *Node
	rack   int
	curve  *curve
	kept   bool
	reason string
	takeQ  int64
}

// sortedGreedySolve is the reference solve: shedding by a string sort,
// the per-rack and global segment sorts, and the performance summed
// after a sort of the grants by node ID.
func sortedGreedySolve(cs *CurveSet, spec Spec, budget units.Power) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	w := budget.Watts()
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return nil, fmt.Errorf("powertree: budget %v is not a non-negative finite power", budget)
	}
	rootQ := toQuanta(budget)

	var leaves []refLeaf
	capQ := make([]int64, len(spec.Racks))
	for ri := range spec.Racks {
		r := &spec.Racks[ri]
		if r.Cap > 0 {
			capQ[ri] = toQuanta(r.Cap)
		} else {
			capQ[ri] = -1
		}
		for ni := range r.Nodes {
			c, err := cs.curveFor(&r.Nodes[ni])
			if err != nil {
				return nil, err
			}
			leaves = append(leaves, refLeaf{node: &r.Nodes[ni], rack: ri, curve: c})
		}
	}

	order := make([]int, len(leaves))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := &leaves[order[i]], &leaves[order[j]]
		if a.node.Priority != b.node.Priority {
			return a.node.Priority > b.node.Priority
		}
		return a.node.ID < b.node.ID
	})
	keptGlobalQ := int64(0)
	keptRackQ := make([]int64, len(spec.Racks))
	var shedOrder []int
	for _, li := range order {
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

	var global []fillItem
	for ri := range spec.Racks {
		var items []fillItem
		for li := range leaves {
			l := &leaves[li]
			if l.rack != ri || !l.kept {
				continue
			}
			for si, s := range l.curve.segs {
				items = append(items, fillItem{leaf: li, seg: si, width: s.width, slope: s.slope, id: l.node.ID})
			}
		}
		sortFill(items)
		if capQ[ri] >= 0 {
			room := capQ[ri] - keptRackQ[ri]
			kept := items[:0]
			for _, it := range items {
				if room <= 0 {
					break
				}
				if it.width > room {
					it.width = room
				}
				room -= it.width
				kept = append(kept, it)
			}
			items = kept
		}
		global = append(global, items...)
	}

	sortFill(global)
	spend := rootQ - keptGlobalQ
	for _, it := range global {
		if spend <= 0 {
			break
		}
		take := it.width
		if take > spend {
			take = spend
		}
		leaves[it.leaf].takeQ += take
		spend -= take
	}

	res := &Result{Budget: budget, Quanta: rootQ}
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
		grantQ := l.curve.floorQ + l.takeQ
		g := Grant{
			Node:        l.node.ID,
			Rack:        spec.Racks[l.rack].ID,
			Platform:    l.node.Platform.Name,
			Workload:    l.node.Workload.Name,
			Priority:    l.node.Priority,
			Quanta:      grantQ,
			FloorQuanta: l.curve.floorQ,
			Budget:      watts(grantQ),
			Perf:        l.curve.perfAt(grantQ),
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
	perfOrder := make([]int, len(res.Grants))
	for i := range perfOrder {
		perfOrder[i] = i
	}
	sort.Slice(perfOrder, func(i, j int) bool {
		return res.Grants[perfOrder[i]].Node < res.Grants[perfOrder[j]].Node
	})
	for _, gi := range perfOrder {
		res.TotalPerf += res.Grants[gi].Perf
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

// compareWithSortedGreedy solves spec at every quantum budget from 0
// to its aggregate demand + 4 and fails on the first rendering that
// differs from the reference's.
func compareWithSortedGreedy(t *testing.T, cs *CurveSet, spec Spec) {
	t.Helper()
	_, maxQ := specFloors(t, spec, cs)
	for q := int64(0); q <= maxQ+4; q++ {
		compareAtBudget(t, cs, spec, watts(q))
		if t.Failed() {
			return
		}
	}
}

// compareAtBudget fails if SolveCurves and the reference render
// different bytes at budget.
func compareAtBudget(t *testing.T, cs *CurveSet, spec Spec, budget units.Power) {
	t.Helper()
	got, err := SolveCurves(cs, spec, budget)
	if err != nil {
		t.Fatalf("SolveCurves(%v): %v", budget, err)
	}
	want, err := sortedGreedySolve(cs, spec, budget)
	if err != nil {
		t.Fatalf("reference solve(%v): %v", budget, err)
	}
	if g, w := got.String(), want.String(); g != w {
		t.Errorf("budget %v: water-fill differs from the sorted greedy\nspec: %s\ngot:\n%s\nwant:\n%s", budget, spec, g, w)
	}
}

// byteSource feeds the random tree generator: each draw consumes one
// byte, and an exhausted source draws zeros, so every input (a fuzz
// input or random bytes) decodes to a valid tree.
type byteSource struct{ b []byte }

// n draws a value in [0, k).
func (s *byteSource) n(k int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0])
	s.b = s.b[1:]
	return v % k
}

// synthSlopes are the slopes random curves draw from: a short list so
// that ties within and across curves are common, zero included. Most
// are not dyadic, so float sums depend on their order.
var synthSlopes = []float64{3.3, 2.1, 1.7, 1, 0.7, 0.3, 0.1, 0}

// randomTree decodes a synthetic tree from src: up to 6 racks, some
// capped (caps below one quantum included), up to 30 leaves drawing
// from a pool of concave curves (so leaves share curves), priorities
// 0–2, and unique IDs of varying length in no particular order.
func randomTree(t *testing.T, src *byteSource) (*CurveSet, Spec) {
	t.Helper()
	var pool []Node // one distinct pair per curve
	for _, pn := range []string{"ivybridge", "haswell"} {
		p, err := hw.PlatformByName(pn)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workload.CPUWorkloads() {
			pool = append(pool, Node{Platform: p, Workload: w})
		}
	}
	cs := &CurveSet{}
	nCurves := 1 + src.n(6)
	for i := 0; i < nCurves; i++ {
		c := &curve{kind: hw.KindCPU, floorQ: int64(src.n(13)), base: 0.37 * float64(src.n(5))}
		lvl := src.n(len(synthSlopes))
		for k := src.n(5); k > 0; k-- {
			lvl += src.n(3) // 0 repeats the slope: a tie within the curve
			if lvl >= len(synthSlopes) {
				break
			}
			c.segs = append(c.segs, segment{width: int64(1 + src.n(6)), slope: synthSlopes[lvl]})
		}
		c.maxQ = c.floorQ
		for _, s := range c.segs {
			c.maxQ += s.width
		}
		cs.add(pool[i].Platform, pool[i].Workload, c)
	}

	var spec Spec
	nodes := 0
	nRacks := 1 + src.n(6)
	for ri := 0; ri < nRacks; ri++ {
		r := Rack{ID: fmt.Sprintf("rk%d", ri)}
		switch src.n(4) {
		case 1:
			r.Cap = units.Power(0.1) // below one quantum
		case 2, 3:
			r.Cap = watts(int64(src.n(60)))
		}
		for k := 1 + src.n(5); k > 0; k-- {
			// Unique: each node draws from its own block of 100.
			id := "n" + strings.Repeat("x", src.n(3)) + strconv.Itoa(src.n(100)+100*nodes)
			nodes++
			n := pool[src.n(nCurves)]
			n.ID, n.Priority = id, src.n(3)
			r.Nodes = append(r.Nodes, n)
		}
		spec.Racks = append(spec.Racks, r)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("random tree invalid: %v", err)
	}
	return cs, spec
}

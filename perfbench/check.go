package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/allocsvc"
	"repro/internal/decisiontable"
	"repro/internal/powertree"
	"repro/internal/recoord"
)

// relWithin is decisiontable's contract comparison: relative to the
// larger magnitude, with a floor of one unit.
func relWithin(a, b, eps float64) bool {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1 {
		m = 1
	}
	return math.Abs(a-b) <= eps*m
}

// checkCoordContract holds a table-served coord answer to the exact
// path under decisiontable's contract: allocations within AllocEps,
// status and surplus exact, perf and power within eps.
func checkCoordContract(got, exact *allocsvc.CoordResponse, eps float64) error {
	ok := got.Status == exact.Status && got.Platform == exact.Platform &&
		got.Workload == exact.Workload && got.Kind == exact.Kind &&
		got.Strategy == exact.Strategy && got.Budget == exact.Budget &&
		got.PerfUnit == exact.PerfUnit && got.SurplusWatts == exact.SurplusWatts &&
		(got.Alloc == nil) == (exact.Alloc == nil)
	if ok && exact.Alloc != nil {
		ok = relWithin(got.Alloc.ProcWatts, exact.Alloc.ProcWatts, decisiontable.AllocEps) &&
			relWithin(got.Alloc.MemWatts, exact.Alloc.MemWatts, decisiontable.AllocEps) &&
			relWithin(got.ExpectedPerf, exact.ExpectedPerf, eps) &&
			relWithin(got.ExpectedPower, exact.ExpectedPower, eps)
	}
	if !ok {
		g, _ := json.Marshal(got)
		e, _ := json.Marshal(exact)
		return fmt.Errorf("coord %s/%s at %g W: served %s, exact %s",
			exact.Platform, exact.Workload, exact.Budget, g, e)
	}
	return nil
}

// checkPlanContract is checkCoordContract for plans: steps, statuses
// and fallbacks exact, allocations within AllocEps.
func checkPlanContract(got, exact *allocsvc.PlanResponse) error {
	ok := got.Rejected == exact.Rejected && len(got.Steps) == len(exact.Steps) &&
		got.Platform == exact.Platform && got.Workload == exact.Workload &&
		got.Budget == exact.Budget
	for i := 0; ok && i < len(exact.Steps); i++ {
		e, g := &exact.Steps[i], &got.Steps[i]
		ok = g.Phase == e.Phase && g.Weight == e.Weight && g.Status == e.Status &&
			g.FellBack == e.FellBack &&
			relWithin(g.Alloc.ProcWatts, e.Alloc.ProcWatts, decisiontable.AllocEps) &&
			relWithin(g.Alloc.MemWatts, e.Alloc.MemWatts, decisiontable.AllocEps)
	}
	if !ok {
		g, _ := json.Marshal(got)
		e, _ := json.Marshal(exact)
		return fmt.Errorf("plan %s/%s at %g W: served %s, exact %s",
			exact.Platform, exact.Workload, exact.Budget, g, e)
	}
	return nil
}

// sameJSON reports whether two values render to identical JSON: the
// exact path is deterministic, so a served answer must equal an
// in-process one byte for byte.
func sameJSON(a, b any) error {
	ja, err := json.Marshal(a)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("answers differ:\n  %s\n  %s", ja, jb)
	}
	return nil
}

// checkExact compares a served exact-path answer with the in-process
// computation of the same request. Tree and schedule answers are
// checked for conservation instead (their computations keep
// server-side caches).
func checkExact(g *genReq, a *answer) error {
	switch g.Route {
	case allocsvc.RouteCoord:
		exact, err := allocsvc.ComputeCoord(*g.Coord)
		if err != nil {
			return err
		}
		return sameJSON(a.coord, &exact)
	case allocsvc.RoutePlan:
		exact, err := allocsvc.ComputePlan(*g.Plan)
		if err != nil {
			return err
		}
		return sameJSON(a.plan, &exact)
	case allocsvc.RouteRecoord:
		exact, err := allocsvc.ComputeRecoord(*g.Recoord)
		if err != nil {
			return err
		}
		return sameJSON(a.recoord, &exact)
	}
	return nil
}

// checkShape is the per-answer check every served response gets: it
// answers the request that was asked, and holds the route's invariant.
func checkShape(g *genReq, a *answer) error {
	switch g.Route {
	case allocsvc.RouteCoord:
		if a.coord.Platform != g.Coord.Platform || a.coord.Workload != g.Coord.Workload ||
			a.coord.Strategy != g.Coord.Strategy || a.coord.Budget != g.Coord.Budget || a.coord.Status == "" {
			return fmt.Errorf("coord answer %s/%s/%s at %g W (status %q) does not match request %+v",
				a.coord.Platform, a.coord.Workload, a.coord.Strategy, a.coord.Budget, a.coord.Status, *g.Coord)
		}
	case allocsvc.RoutePlan:
		if a.plan.Platform != g.Plan.Platform || a.plan.Workload != g.Plan.Workload ||
			a.plan.Budget != g.Plan.Budget || len(a.plan.Steps) == 0 {
			return fmt.Errorf("plan answer %+v does not match request %+v", *a.plan, *g.Plan)
		}
	case allocsvc.RouteSchedule:
		return checkSchedule(g.Schedule, a.sched)
	case allocsvc.RouteTree:
		return checkTreeAnswer(a.tree, g.Tree)
	case allocsvc.RouteRecoord:
		return checkRecoordGain(a.recoord.OnlinePerf, a.recoord.StaticPerf)
	}
	return nil
}

// checkSchedule checks a round's power accounting: placement budgets
// plus the pool left equal the cluster budget, and every job is placed
// or deferred exactly once.
func checkSchedule(req *allocsvc.ScheduleRequest, resp *allocsvc.ScheduleResponse) error {
	sum := resp.PoolLeft
	for _, p := range resp.Placements {
		sum += p.Budget
	}
	if !relWithin(sum, req.Budget, 1e-9) || resp.PoolLeft < 0 {
		return fmt.Errorf("schedule: placements %g W + pool %g W != budget %g W", sum-resp.PoolLeft, resp.PoolLeft, req.Budget)
	}
	if len(resp.Placements)+len(resp.Deferred) != len(req.Jobs) {
		return fmt.Errorf("schedule: %d placed + %d deferred != %d jobs", len(resp.Placements), len(resp.Deferred), len(req.Jobs))
	}
	return nil
}

// checkTreeAnswer checks a served tree's conservation. Every grant is a
// whole number of 0.25 W quanta, so the sums are exact in float64.
func checkTreeAnswer(resp *allocsvc.TreeResponse, req *allocsvc.TreeRequest) error {
	if resp.Granted+resp.Surplus != resp.Budget || resp.Surplus < 0 {
		return fmt.Errorf("tree: granted %g + surplus %g != budget %g", resp.Granted, resp.Surplus, resp.Budget)
	}
	perRack := map[string]float64{}
	leaves := 0
	for _, g := range resp.Grants {
		perRack[g.Rack] += g.Budget
	}
	racks := 0.0
	for _, r := range resp.Racks {
		if perRack[r.Rack] != r.Budget {
			return fmt.Errorf("tree: rack %s budget %g != leaf sum %g", r.Rack, r.Budget, perRack[r.Rack])
		}
		racks += r.Budget
		leaves += r.Kept + r.Shed
	}
	if racks != resp.Granted {
		return fmt.Errorf("tree: rack sum %g != granted %g", racks, resp.Granted)
	}
	want := 0
	for _, r := range req.Racks {
		want += len(r.Nodes)
	}
	if leaves != want || len(resp.Grants)+len(resp.Shed) != want {
		return fmt.Errorf("tree: %d grants + %d shed != %d leaves", len(resp.Grants), len(resp.Shed), want)
	}
	return nil
}

// checkTreeQuanta checks powertree's conservation identities exactly,
// in integer quanta.
func checkTreeQuanta(res *powertree.Result, leaves int) error {
	if res.GrantedQuanta+res.SurplusQuanta != res.Quanta || res.SurplusQuanta < 0 {
		return fmt.Errorf("tree: granted %d + surplus %d != root %d quanta", res.GrantedQuanta, res.SurplusQuanta, res.Quanta)
	}
	perRack := map[string]int64{}
	for _, g := range res.Grants {
		if g.Quanta < g.FloorQuanta {
			return fmt.Errorf("tree: leaf %s granted %d quanta under its floor %d", g.Node, g.Quanta, g.FloorQuanta)
		}
		perRack[g.Rack] += g.Quanta
	}
	var sum int64
	for _, r := range res.Racks {
		if perRack[r.Rack] != r.Quanta {
			return fmt.Errorf("tree: rack %s quanta %d != leaf sum %d", r.Rack, r.Quanta, perRack[r.Rack])
		}
		if r.CapQuanta > 0 && r.Quanta > r.CapQuanta {
			return fmt.Errorf("tree: rack %s granted %d quanta over its cap %d", r.Rack, r.Quanta, r.CapQuanta)
		}
		sum += r.Quanta
	}
	if sum != res.GrantedQuanta {
		return fmt.Errorf("tree: rack sum %d != granted %d quanta", sum, res.GrantedQuanta)
	}
	if len(res.Grants)+len(res.Shed) != leaves {
		return fmt.Errorf("tree: %d grants + %d shed != %d leaves", len(res.Grants), len(res.Shed), leaves)
	}
	return nil
}

// checkRecoordGain is recoord's headline property: the online
// controller never does worse than static COORD (up to float noise).
func checkRecoordGain(online, static float64) error {
	if online < static*(1-1e-9) {
		return fmt.Errorf("recoord: online %g below static %g", online, static)
	}
	return nil
}

// checkRecoordResult applies checkRecoordGain to an in-process run.
func checkRecoordResult(res *recoord.Result) error {
	return checkRecoordGain(res.OnlinePerf, res.StaticPerf)
}

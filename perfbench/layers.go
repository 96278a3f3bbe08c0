package main

import (
	"fmt"
	"time"

	"repro/internal/allocsvc"
	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/dyncoord"
	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/powertree"
	"repro/internal/profile"
	"repro/internal/recoord"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// maxReplay bounds how many requests of one route a layer replay
// times, keeping the traced run's extra work small.
const maxReplay = 200

// simPoint is one simulator call the exact path makes for a coord
// decision.
type simPoint struct {
	p   hw.Platform
	w   workload.Workload
	req evalpool.Request
}

// replayExactLayers replays a run's requests on a fresh engine and
// times the layers below allocsvc's exact path with direct calls:
// profiling, the COORD decision, the simulator, the evalpool memo,
// dyncoord planning, cluster scheduling and recoord runs. A layer the
// requests never reach keeps its 0.
func replayExactLayers(rep *report, reqs []genReq) error {
	byRoute := map[string][]*genReq{}
	for i := range reqs {
		g := &reqs[i]
		if len(byRoute[g.Route]) < maxReplay {
			byRoute[g.Route] = append(byRoute[g.Route], g)
		}
	}

	// Profiling, cold: each distinct CPU pair on its own fresh engine.
	cpuProfs := map[[2]string]profile.CPUProfile{}
	gpuProfs := map[[2]string]profile.GPUProfile{}
	var profMs dist
	var points []simPoint
	for _, g := range byRoute[allocsvc.RouteCoord] {
		p, w, err := resolve(g.Coord.Platform, g.Coord.Workload)
		if err != nil {
			return err
		}
		key := [2]string{p.Name, w.Name}
		budget := units.Power(g.Coord.Budget)
		var d coord.Decision
		if p.Kind == hw.KindCPU {
			prof, ok := cpuProfs[key]
			if !ok {
				evalpool.SetDefault(evalpool.New(evalpool.Options{}))
				t0 := time.Now()
				if prof, err = profile.ProfileCPU(p, w); err != nil {
					return err
				}
				profMs.addDur(time.Since(t0), time.Millisecond)
				cpuProfs[key] = prof
			}
			d = coord.CPU(prof, budget)
		} else {
			prof, ok := gpuProfs[key]
			if !ok {
				if prof, err = profile.ProfileGPU(p, w); err != nil {
					return err
				}
				gpuProfs[key] = prof
			}
			d = coord.GPU(prof, budget, coord.DefaultGamma)
		}
		if d.Status != coord.StatusTooSmall {
			points = append(points, simPoint{p, w, evalReq(p, d.Alloc.Proc, d.Alloc.Mem)})
		}
	}
	if profMs.n() > 0 {
		rep.set("profile.cpu_ms", profMs.q(0.5))
	}

	// The COORD decision alone, on warm profiles.
	if coords := byRoute[allocsvc.RouteCoord]; len(coords) > 0 {
		k := 0
		rep.set("coord.compute_us", float64(timeOp(7, 2*time.Millisecond, func() {
			g := coords[k%len(coords)]
			k++
			key := [2]string{g.Coord.Platform, g.Coord.Workload}
			if prof, ok := cpuProfs[key]; ok {
				coord.CPU(prof, units.Power(g.Coord.Budget))
			} else {
				coord.GPU(gpuProfs[key], units.Power(g.Coord.Budget), coord.DefaultGamma)
			}
		}))/1e3)
	}

	// The simulator, called directly, and the memo in front of it.
	var cpuPts, gpuPts []simPoint
	for _, pt := range points {
		if pt.p.Kind == hw.KindCPU {
			cpuPts = append(cpuPts, pt)
		} else {
			gpuPts = append(gpuPts, pt)
		}
	}
	var simErr error
	if len(cpuPts) > 0 {
		k := 0
		rep.set("sim.run_cpu_us", float64(timeOp(5, 2*time.Millisecond, func() {
			pt := &cpuPts[k%len(cpuPts)]
			k++
			if _, err := sim.RunCPU(pt.p, &pt.w, pt.req.Proc, pt.req.Mem); err != nil && simErr == nil {
				simErr = err
			}
		}))/1e3)
	}
	if len(gpuPts) > 0 {
		k := 0
		rep.set("sim.run_gpu_us", float64(timeOp(5, 2*time.Millisecond, func() {
			pt := &gpuPts[k%len(gpuPts)]
			k++
			if _, err := sim.RunGPUMemPower(pt.p, &pt.w, pt.req.Proc, pt.req.Mem); err != nil && simErr == nil {
				simErr = err
			}
		}))/1e3)
	}
	if simErr != nil {
		return simErr
	}
	if len(points) > 0 {
		eng := evalpool.New(evalpool.Options{})
		var miss dist
		for _, pt := range points {
			t0 := time.Now()
			if _, err := eng.Evaluate(evalpool.Problem{Platform: pt.p, Workload: pt.w}, pt.req); err != nil {
				return err
			}
			miss.addDur(time.Since(t0), time.Microsecond)
		}
		k := 0
		rep.set("evalpool.evaluate_us.hit", float64(timeOp(5, 2*time.Millisecond, func() {
			pt := &points[k%len(points)]
			k++
			_, _ = eng.Evaluate(evalpool.Problem{Platform: pt.p, Workload: pt.w}, pt.req) // evaluated above without error
		}))/1e3)
		// A repeated point within the replay is a hit, not a miss.
		st := eng.Stats()
		if st.Misses > 0 {
			rep.set("evalpool.evaluate_us.miss", miss.q(0.5))
		}
	}

	// Planning, on a warm engine (the first pass warms it).
	if plans := byRoute[allocsvc.RoutePlan]; len(plans) > 0 {
		var d dist
		for pass := 0; pass < 2; pass++ {
			for _, g := range plans {
				p, w, err := resolve(g.Plan.Platform, g.Plan.Workload)
				if err != nil {
					return err
				}
				t0 := time.Now()
				if _, err := dyncoord.PlanCPUOrDegrade(p, w, units.Power(g.Plan.Budget)); err != nil {
					return err
				}
				if pass == 1 {
					d.addDur(time.Since(t0), time.Microsecond)
				}
			}
		}
		rep.set("dyncoord.plan_us", d.q(0.5))
	}

	if err := replaySchedules(rep, byRoute[allocsvc.RouteSchedule]); err != nil {
		return err
	}
	return replayRecoords(rep, byRoute[allocsvc.RouteRecoord])
}

// evalReq is the evaluation allocsvc's exact path asks for after a
// decision: the CPU split as is, or the GPU board cap (never below the
// card's floor) with the memory budget.
func evalReq(p hw.Platform, proc, mem units.Power) evalpool.Request {
	if p.Kind == hw.KindCPU {
		return evalpool.Request{Op: evalpool.OpCPU, Proc: proc, Mem: mem}
	}
	cap := proc + mem
	if cap < p.GPU.MinCap {
		cap = p.GPU.MinCap
	}
	return evalpool.Request{Op: evalpool.OpGPUMemPower, Proc: cap, Mem: mem}
}

func resolve(platform, wl string) (hw.Platform, workload.Workload, error) {
	p, err := hw.PlatformByName(platform)
	if err != nil {
		return hw.Platform{}, workload.Workload{}, err
	}
	w, err := workload.ByName(wl)
	if err != nil {
		return hw.Platform{}, workload.Workload{}, err
	}
	return p, w, nil
}

// replaySchedules times cluster.Scheduler.Schedule on the run's rounds,
// one scheduler per cluster shape, after a warming pass.
func replaySchedules(rep *report, reqs []*genReq) error {
	if len(reqs) == 0 {
		return nil
	}
	scheds := map[string]*cluster.Scheduler{}
	var d dist
	for pass := 0; pass < 2; pass++ {
		for _, g := range reqs {
			r := g.Schedule
			key := fmt.Sprintf("%g|%d|%s", r.Budget, len(r.Nodes), r.Nodes[0].Platform)
			sched, ok := scheds[key]
			if !ok {
				nodes := make([]cluster.Node, len(r.Nodes))
				for i, n := range r.Nodes {
					p, err := hw.PlatformByName(n.Platform)
					if err != nil {
						return err
					}
					nodes[i] = cluster.Node{ID: n.ID, Platform: p}
				}
				var err error
				if sched, err = cluster.NewScheduler(units.Power(r.Budget), nodes); err != nil {
					return err
				}
				scheds[key] = sched
			}
			jobs := make([]cluster.Job, len(r.Jobs))
			for i, j := range r.Jobs {
				w, err := workload.ByName(j.Workload)
				if err != nil {
					return err
				}
				jobs[i] = cluster.Job{ID: j.ID, Workload: w}
			}
			t0 := time.Now()
			if _, err := sched.Schedule(jobs); err != nil {
				return err
			}
			if pass == 1 {
				d.addDur(time.Since(t0), time.Microsecond)
			}
		}
	}
	rep.set("cluster.schedule_us", d.q(0.5))
	return nil
}

// replayRecoords times recoord.Run on the run's recoord requests.
func replayRecoords(rep *report, reqs []*genReq) error {
	if len(reqs) == 0 {
		return nil
	}
	var d dist
	switches := 0
	for _, g := range reqs {
		p, w, err := resolve(g.Recoord.Platform, g.Recoord.Workload)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := recoord.Run(recoord.Config{Platform: p, Workload: w, Budget: units.Power(g.Recoord.Budget)})
		if err != nil {
			return err
		}
		d.addDur(time.Since(t0), time.Millisecond)
		switches += res.Switches
		rep.check(checkRecoordResult(&res))
	}
	rep.set("recoord.run_ms", d.q(0.5))
	rep.set("recoord.switches_per_run", float64(switches)/float64(len(reqs)))
	return nil
}

// treeSizes are the leaf counts the powertree layer is timed at.
var treeSizes = []int{64, 1024, 4096}

// replayTrees times powertree's two stages at each size: building the
// leaves' curves on a fresh engine (cold) and solving them, each solve
// checked for exact conservation.
func replayTrees(rep *report) error {
	for _, n := range treeSizes {
		spec, err := treeSpec(genTree(n, 1))
		if err != nil {
			return err
		}
		evalpool.SetDefault(evalpool.New(evalpool.Options{}))
		t0 := time.Now()
		cs, err := powertree.BuildCurves(spec)
		if err != nil {
			return err
		}
		rep.set(fmt.Sprintf("powertree.curves_ms.%d", n), float64(time.Since(t0))/1e6)
		var d dist
		for level := 0; level < 4; level++ {
			t0 := time.Now()
			res, err := powertree.SolveCurves(cs, spec, units.Power(float64(n)*(130+20*float64(level))))
			if err != nil {
				return err
			}
			d.addDur(time.Since(t0), time.Millisecond)
			rep.check(checkTreeQuanta(res, n))
		}
		rep.set(fmt.Sprintf("powertree.solve_ms.%d", n), d.q(0.5))
	}
	return nil
}

// treeSpec converts a generated tree request into a powertree spec.
func treeSpec(req *allocsvc.TreeRequest) (powertree.Spec, error) {
	var spec powertree.Spec
	for _, rj := range req.Racks {
		rack := powertree.Rack{ID: rj.ID, Cap: units.Power(rj.CapWatts)}
		for _, nj := range rj.Nodes {
			p, w, err := resolve(nj.Platform, nj.Workload)
			if err != nil {
				return powertree.Spec{}, err
			}
			rack.Nodes = append(rack.Nodes, powertree.Node{ID: nj.ID, Platform: p, Workload: w, Priority: nj.Priority})
		}
		spec.Racks = append(spec.Racks, rack)
	}
	return spec, spec.Validate()
}

package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/evalpool"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/powertree"
	"repro/internal/recoord"
	"repro/internal/units"
	"repro/internal/workload"
)

// The simulate batch's stated input sizes. DES fast mode runs the
// BENCH_des.json configuration (10k ivybridge nodes running stream,
// its arrival and fault specs) with the horizon shortened to fit a
// round; exact mode runs a few hundred nodes at the same per-node
// arrival rate.
const (
	desFastNodes    = 10000
	desFastHorizon  = 800
	desExactNodes   = 256
	desExactHorizon = 1900
	desNodeBudget   = 208
	desArrivalSpec  = "rate=35,burst=2,diurnal=0.3,period=3600,units=2e12,spread=0.5"
	desExactArrival = "rate=0.9,burst=2,diurnal=0.3,period=3600,units=2e12,spread=0.5"
	desFaultSpec    = "shock.mtbs=3600,shock.frac=0.15,shock.len=120"
	simTreeLeaves   = 4096
	// recoordPerRound is how many recoord runs a round makes, each at
	// a budget drawn from the seed so the runs miss the memo as a
	// planner's budget sweep does. With the horizons above, it gives
	// DES fast, DES exact, the tree solve and recoord comparable shares
	// of a round (README.md has the measured shares), so a slowdown in
	// any one of them moves the round time.
	recoordPerRound = 64
	// phaseSim seeds round r's recoord budgets as phase phaseSim+r.
	phaseSim = 1000
	// desConfigs is how many seeds the rounds cycle through: every
	// config is re-run, and each re-run must replay its first trace
	// hash exactly.
	desConfigs = 3
	// simRoundsPerSecond sizes the closed batch to take about --seconds
	// on a 2-core host. The batch is fixed work, so
	// a slower build takes longer rather than doing less.
	simRoundsPerSecond = 2.5
)

// simInputs is the simulate workload's set-up: the simulated clusters
// with warm profile caches, the DES configurations and the tree.
type simInputs struct {
	fast, exact []des.Config
	tree        powertree.Spec
	recoords    []recoord.Config // one per pair, budget drawn per run
	seed        uint64
}

func newSimInputs(seed uint64) (*simInputs, error) {
	evalpool.SetDefault(evalpool.New(evalpool.Options{}))
	p, w, err := resolve("ivybridge", "stream")
	if err != nil {
		return nil, err
	}
	fsp, err := faults.ParseSpec(desFaultSpec)
	if err != nil {
		return nil, err
	}
	in := &simInputs{seed: seed}
	for _, mode := range []struct {
		nodes   int
		horizon float64
		arrival string
		mode    des.Mode
		out     *[]des.Config
	}{
		{desFastNodes, desFastHorizon, desArrivalSpec, des.ModeFast, &in.fast},
		{desExactNodes, desExactHorizon, desExactArrival, des.ModeExact, &in.exact},
	} {
		arr, err := des.ParseArrivalSpec(mode.arrival)
		if err != nil {
			return nil, err
		}
		sched, err := newCluster(p, mode.nodes, w)
		if err != nil {
			return nil, err
		}
		for k := 0; k < desConfigs; k++ {
			s := seed*uint64(desConfigs) + uint64(k)
			*mode.out = append(*mode.out, des.Config{
				Sched: sched, Workload: w,
				Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
				Arrivals: arr, Seed: s, Horizon: mode.horizon, Mode: mode.mode,
				Injector: faults.NewInjector(fsp, s),
			})
		}
	}
	if in.tree, err = treeSpec(genTree(simTreeLeaves, 1)); err != nil {
		return nil, err
	}
	for _, pw := range recoordPairs {
		p, w, err := resolve(pw[0], pw[1])
		if err != nil {
			return nil, err
		}
		in.recoords = append(in.recoords, recoord.Config{Platform: p, Workload: w})
	}
	return in, nil
}

// newCluster builds an n-node cluster of p at the per-node budget,
// with its scheduler's profiles warmed for w.
func newCluster(p hw.Platform, n int, w workload.Workload) (*cluster.Scheduler, error) {
	nodes := make([]cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: fmt.Sprintf("node%05d", i), Platform: p}
	}
	sched, err := cluster.NewScheduler(units.Power(desNodeBudget*float64(n)), nodes)
	if err != nil {
		return nil, err
	}
	return sched, sched.Prewarm([]workload.Workload{w})
}

// simTimes accumulates per-call host times over the batch.
type simTimes struct {
	fastEvents, exactEvts int
	fastS, exactS         float64
	events, jobs          int
	runs, desRuns         int
	tree, recoord         dist
	switches, recoords    int
}

// runSimulate runs the closed batch: rounds of one DES fast run, one
// DES exact run, one 4096-leaf tree solve and recoordPerRound recoord
// runs, each answer checked.
func runSimulate(rep *report) error {
	o := rep.o
	reps := 7
	if o.trace {
		reps = 1
	}
	var setups []float64
	var in *simInputs
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		var err error
		if in, err = newSimInputs(o.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.info["setup_s_each"] = setups
	rep.heapCheckpoint()
	eng0 := evalpool.Default().Stats()

	rounds := int(math.Max(20, math.Round(o.seconds*simRoundsPerSecond)))
	hashes := map[string]uint64{}
	var st simTimes
	var roundMs dist
	start := time.Now()
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		if err := simRound(rep, in, r, hashes, &st); err != nil {
			return err
		}
		roundMs.addDur(time.Since(t0), time.Millisecond)
	}
	wall := time.Since(start).Seconds()
	rep.heapCheckpoint()
	// The batch's operations: DES runs, tree solves, recoord runs and
	// checks.
	rep.phases = append(rep.phases, &phaseResult{Name: "batch", Sent: int(rep.attempted),
		Succeeded: int(rep.attempted - rep.failed), Failed: int(rep.failed), P50ms: roundMs.q(0.5)})
	rep.info["rounds"] = rounds
	rep.info["batch_s"] = wall
	rep.info["round_share"] = map[string]float64{
		"des_fast":  st.fastS / wall,
		"des_exact": st.exactS / wall,
		"tree":      sum(st.tree.v) / 1e3 / wall,
		"recoord":   sum(st.recoord.v) / 1e3 / wall,
	}

	if !o.trace {
		q, tail := roundMs.tail()
		rep.set("setup_s", median(setups))
		rep.set("latency_p50_ms", roundMs.q(0.5))
		rep.info["round_tail_ms"] = tail
		rep.info["tail_quantile"] = q
		rep.set("max_rate_rps", float64(rounds)/wall)
		rep.set("ok_ratio", 1-ratio(float64(rep.failed), float64(rep.attempted)))
		rep.set("peak_heap_mib", rep.peakHeap)
		return nil
	}

	eng := evalpool.Default().Stats()
	hits, misses := eng.Hits-eng0.Hits, eng.Misses-eng0.Misses
	rep.set("evalpool.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	rep.set("evalpool.sim_runs_per_req", ratio(float64(eng.SimRuns-eng0.SimRuns), float64(st.runs)))
	st.setDES(rep)
	rep.set("recoord.run_ms", st.recoord.q(0.5))
	rep.set("recoord.switches_per_run", float64(st.switches)/float64(st.recoords))
	rep.set("bench.error_ratio", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.info["tree_solve_ms.4096"] = st.tree.q(0.5)
	return replayTrees(rep)
}

// simRound runs round r of the batch.
func simRound(rep *report, in *simInputs, r int, hashes map[string]uint64, st *simTimes) error {
	for _, cfg := range []des.Config{in.fast[r%desConfigs], in.exact[r%desConfigs]} {
		if err := desRun(rep, cfg, hashes, st); err != nil {
			return err
		}
	}

	t0 := time.Now()
	res, err := powertree.Solve(in.tree, units.Power(float64(simTreeLeaves)*(130+20*float64(r%4))))
	if err != nil {
		return err
	}
	st.tree.addDur(time.Since(t0), time.Millisecond)
	st.runs++
	rep.check(checkTreeQuanta(res, simTreeLeaves))

	rng := newRand(in.seed, phaseSim+r)
	for i := 0; i < recoordPerRound; i++ {
		cfg := in.recoords[i%len(in.recoords)]
		cfg.Budget = units.Power(200 + 500*rng.Float64()) // the cards' settable cap range
		t0 := time.Now()
		res, err := recoord.Run(cfg)
		if err != nil {
			return err
		}
		st.recoord.addDur(time.Since(t0), time.Millisecond)
		st.runs++
		st.recoords++
		st.switches += res.Switches
		rep.check(checkRecoordResult(&res))
	}
	return nil
}

// desRun runs one DES configuration, folds its counts and host time
// into st, and checks it: every job completes, and a re-run of a
// configuration must replay its first trace hash.
func desRun(rep *report, cfg des.Config, hashes map[string]uint64, st *simTimes) error {
	t0 := time.Now()
	res, err := des.Run(cfg)
	if err != nil {
		return err
	}
	secs := time.Since(t0).Seconds()
	st.runs++
	st.desRuns++
	st.events += res.EngineEvents
	st.jobs += res.Completed
	if cfg.Mode == des.ModeFast {
		st.fastS += secs
		st.fastEvents += res.EngineEvents
	} else {
		st.exactS += secs
		st.exactEvts += res.EngineEvents
	}
	key := fmt.Sprintf("%v/%d", cfg.Mode, cfg.Seed)
	if h, ok := hashes[key]; ok {
		var err error
		if h != res.TraceHash {
			err = fmt.Errorf("des %s: replay hash %016x, first run %016x", key, res.TraceHash, h)
		}
		rep.check(err)
	} else {
		hashes[key] = res.TraceHash
		rep.count(1, 0)
	}
	if res.Completed != res.Arrived {
		rep.fail(fmt.Errorf("des %s: %d of %d jobs completed", key, res.Completed, res.Arrived))
	}
	return nil
}

// setDES reports the DES layer's per-layer metrics.
func (st *simTimes) setDES(rep *report) {
	rep.set("des.fast_ns_per_event", st.fastS*1e9/float64(st.fastEvents))
	rep.set("des.exact_ns_per_event", st.exactS*1e9/float64(st.exactEvts))
	rep.set("des.fast_events_per_s", float64(st.fastEvents)/st.fastS)
	rep.set("des.exact_events_per_s", float64(st.exactEvts)/st.exactS)
	rep.set("des.events", float64(st.events)/float64(st.desRuns))
	rep.set("des.jobs", float64(st.jobs)/float64(st.desRuns))
}

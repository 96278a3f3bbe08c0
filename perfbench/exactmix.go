package main

import (
	"repro/internal/allocsvc"
)

// exactMix is the exact path under load: JSON over all five routes,
// tables off (pbc serve's default), so every answer is computed by the
// sim → evalpool → profile/coord → powertree → recoord stack, queued,
// coalesced and admitted by allocsvc.
var exactMix = servingSpec{
	cfg:         topoConfig{},
	gen:         genExactMix,
	nominal:     200,
	setupReps:   7,
	sampleEvery: 5,
	setupReqs:   exactSetupReqs(),
	checkSample: func(rep *report, _ *topology, g *genReq, a *answer) {
		rep.check(checkExact(g, a))
	},
	traced: func(rep *report, _ *topology, reqs []genReq) error {
		if err := replayExactLayers(rep, reqs); err != nil {
			return err
		}
		return replayTrees(rep)
	},
}

// exactSetupReqs is the cold start a fresh shard pays before it serves
// the mix's working set at speed: the first answer for every coord and
// plan pair, every recoord pair, one schedule round and one tree.
func exactSetupReqs() []genReq {
	var out []genReq
	for _, p := range mixPairs {
		out = append(out, genReq{Route: allocsvc.RouteCoord, Coord: &allocsvc.CoordRequest{
			Platform: p.platform, Workload: p.workload, Budget: p.lo + p.step*float64(p.steps/2), Strategy: "coord"}})
		if !p.gpu {
			out = append(out, genReq{Route: allocsvc.RoutePlan, Plan: &allocsvc.PlanRequest{
				Platform: p.platform, Workload: p.workload, Budget: p.lo + p.step*float64(p.steps/2)}})
		}
	}
	for _, pw := range recoordPairs {
		out = append(out, genReq{Route: allocsvc.RouteRecoord, Recoord: &allocsvc.RecoordRequest{
			Platform: pw[0], Workload: pw[1], Budget: 300}})
	}
	return append(out,
		genReq{Route: allocsvc.RouteSchedule, Schedule: genScheduleFixed()},
		genReq{Route: allocsvc.RouteTree, Tree: genTree(64, 1)})
}

// genScheduleFixed is the set-up's scheduling round: four nodes, six
// jobs.
func genScheduleFixed() *allocsvc.ScheduleRequest {
	return &allocsvc.ScheduleRequest{
		Budget: 800,
		Nodes: []allocsvc.NodeJSON{
			{ID: "n00", Platform: "ivybridge"}, {ID: "n01", Platform: "haswell"},
			{ID: "n02", Platform: "ivybridge"}, {ID: "n03", Platform: "haswell"},
		},
		Jobs: []allocsvc.JobJSON{
			{ID: "j00", Workload: "stream"}, {ID: "j01", Workload: "dgemm"}, {ID: "j02", Workload: "ft"},
			{ID: "j03", Workload: "mg"}, {ID: "j04", Workload: "cg"}, {ID: "j05", Workload: "ep"},
		},
	}
}

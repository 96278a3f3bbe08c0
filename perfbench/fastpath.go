package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/allocsvc"
	"repro/internal/decisiontable"
	"repro/internal/wire"
)

// fastpath is the table-served hot path: coord and plan requests in
// binary frames through allocclient to two shards serving from
// decision tables. Set-up builds the tables for the traffic's pairs.
var fastpath = servingSpec{
	cfg:         topoConfig{tables: true, binary: true},
	gen:         genFastpath,
	nominal:     8000,
	setupReps:   3,
	sampleEvery: 50,
	setupReqs: []genReq{
		{Route: allocsvc.RouteCoord, Coord: &allocsvc.CoordRequest{Platform: "ivybridge", Workload: "stream", Budget: 208, Strategy: "coord"}},
		{Route: allocsvc.RoutePlan, Plan: &allocsvc.PlanRequest{Platform: "haswell", Workload: "sp", Budget: 200}},
	},
	checkSample: checkFastpathAnswer,
	traced:      fastpathLayers,
}

// checkFastpathAnswer holds a sampled answer to the exact path under
// the table contract, and to its JSON twin: the same request sent as
// JSON must get the identical answer.
func checkFastpathAnswer(rep *report, tp *topology, g *genReq, a *answer) {
	if !a.binary {
		rep.check(fmt.Errorf("%s answer came back as JSON from a binary client", g.Route))
	}
	switch g.Route {
	case allocsvc.RouteCoord:
		exact, err := allocsvc.ComputeCoord(*g.Coord)
		if err == nil {
			err = checkCoordContract(a.coord, &exact, tp.set.Eps())
		}
		rep.check(err)
	case allocsvc.RoutePlan:
		exact, err := allocsvc.ComputePlan(*g.Plan)
		if err == nil {
			err = checkPlanContract(a.plan, &exact)
		}
		rep.check(err)
	}
	j, _, err := call(context.Background(), tp.jsonCli, g)
	if err == nil {
		if j.binary {
			err = fmt.Errorf("%s answer came back binary from a JSON client", g.Route)
		} else if g.Route == allocsvc.RouteCoord {
			err = sameJSON(a.coord, j.coord)
		} else {
			err = sameJSON(a.plan, j.plan)
		}
	}
	rep.check(err)
}

// fastpathLayers times the layers the traced run cannot wrap: the wire
// codec, in-process ServeBinary, and the exact path's layers on the
// run's own requests.
func fastpathLayers(rep *report, tp *topology, reqs []genReq) error {
	if err := codecLayers(rep, tp.set, tp.svcs[0], reqs); err != nil {
		return err
	}
	return replayExactLayers(rep, reqs)
}

// codecLayers times the binary codec and in-process ServeBinary (svc
// must serve binary frames from set) on the table-served coord requests
// among reqs.
func codecLayers(rep *report, set *decisiontable.Set, svc *allocsvc.Service, reqs []genReq) error {
	var frames [][]byte
	var resps []allocsvc.CoordResponse
	var all [][]byte
	for i := range reqs {
		var f []byte
		var err error
		if g := &reqs[i]; g.Coord != nil {
			f, err = wire.AppendCoordRequest(nil, g.Coord)
			var out allocsvc.CoordResponse
			if err == nil && set.Coord(g.Coord, &out) {
				frames = append(frames, f)
				resps = append(resps, out)
			}
		} else {
			f, err = wire.AppendPlanRequest(nil, g.Plan)
		}
		if err != nil {
			return fmt.Errorf("encoding request frame: %w", err)
		}
		all = append(all, f)
	}
	if len(frames) == 0 {
		return fmt.Errorf("no table-served coord request to replay")
	}
	var req allocsvc.CoordRequest
	k := 0
	rep.set("wire.coord_req_decode_ns", float64(timeOp(7, 2*time.Millisecond, func() {
		_ = wire.DecodeCoordRequest(frames[k%len(frames)], &req) // encoded above: cannot fail
		k++
	})))
	buf := make([]byte, 0, 512)
	rep.set("wire.coord_resp_encode_ns", float64(timeOp(7, 2*time.Millisecond, func() {
		buf, _ = wire.AppendCoordResponse(buf[:0], &resps[k%len(resps)]) // served answers fit a frame
		k++
	})))
	ctx := context.Background()
	var bad error
	rep.set("allocsvc.serve_binary_us.p50", float64(timeOp(7, 2*time.Millisecond, func() {
		code, _, out := svc.ServeBinary(ctx, all[k%len(all)], buf[:0])
		if code != http.StatusOK && bad == nil {
			bad = fmt.Errorf("in-process ServeBinary answered %d", code)
		}
		buf = out
		k++
	}))/1e3)
	rep.check(bad)
	return nil
}

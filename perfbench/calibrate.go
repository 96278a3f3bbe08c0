package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/allocsvc"
	"repro/internal/evalpool"
)

// calibrateRequests is how much of the exact-mix stream the calibration
// serves.
const calibrateRequests = 4000

// routeCost is one route's measured server time in the calibration.
type routeCost struct {
	Route  string  `json:"route"`
	Count  int     `json:"count"`
	MeanUs float64 `json:"mean_us"`
	// Share is the route's share of all server time under the current
	// weights; the rule wants every share at 1/len(exactRoutes).
	Share float64 `json:"share"`
	// Weight is the route's current weight, Derived the weight the rule
	// gives from MeanUs.
	Weight  int `json:"weight"`
	Derived int `json:"derived"`
}

// calibrateMix checks exact-mix's route weights against their rule:
// every route takes an equal share of the shards' server time, so no
// route's layers hide behind another's. It serves the seed's exact-mix
// stream in process (no sockets, one request at a time) on a fresh
// engine and shard after the workload's set-up requests, measures each
// route's mean server time, and derives weights per mille proportional
// to its inverse. It returns one entry per route.
func calibrateMix(seed uint64) ([]routeCost, error) {
	evalpool.SetDefault(evalpool.New(evalpool.Options{}))
	h := allocsvc.New(allocsvc.Config{}).Handler()
	serve := func(g *genReq) (time.Duration, error) {
		b, err := json.Marshal(body(g))
		if err != nil {
			return 0, err
		}
		r := httptest.NewRequest(http.MethodPost, g.Route, bytes.NewReader(b))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		if w.Code != http.StatusOK {
			return 0, fmt.Errorf("%s answered %d in process: %s", g.Route, w.Code, w.Body.String())
		}
		return d, nil
	}
	for _, g := range exactSetupReqs() {
		if _, err := serve(&g); err != nil {
			return nil, err
		}
	}
	total := map[string]time.Duration{}
	count := map[string]int{}
	reqs := genExactMix(seed, phaseNominal, calibrateRequests)
	for i := range reqs {
		d, err := serve(&reqs[i])
		if err != nil {
			return nil, err
		}
		total[reqs[i].Route] += d
		count[reqs[i].Route]++
	}
	var out []routeCost
	inv, all := 0.0, 0.0
	for _, r := range exactRoutes {
		c := routeCost{Route: r.route, Count: count[r.route], Weight: r.weight}
		c.MeanUs = float64(total[r.route]) / 1e3 / float64(c.Count)
		inv += 1 / c.MeanUs
		all += float64(r.weight) * c.MeanUs
		out = append(out, c)
	}
	for i := range out {
		out[i].Share = float64(out[i].Weight) * out[i].MeanUs / all
		out[i].Derived = int(math.Max(1, math.Round(1000/out[i].MeanUs/inv)))
	}
	return out, nil
}

// body returns the generated request's payload for its route.
func body(g *genReq) any {
	switch g.Route {
	case allocsvc.RouteCoord:
		return g.Coord
	case allocsvc.RoutePlan:
		return g.Plan
	case allocsvc.RouteSchedule:
		return g.Schedule
	case allocsvc.RouteTree:
		return g.Tree
	default:
		return g.Recoord
	}
}

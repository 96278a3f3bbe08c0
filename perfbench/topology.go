package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/allocclient"
	"repro/internal/allocsvc"
	"repro/internal/decisiontable"
	"repro/internal/evalpool"
	"repro/internal/telemetry"
)

// shardCount is the serving topology's size: two allocsvc shards behind
// one allocclient ring, over HTTP loopback.
const shardCount = 2

// topology is one fresh serving stack: a fresh evalpool engine
// installed as the process default, an optional fresh decision-table
// set, the shards and a client. Nothing in it is shared with another
// topology, so memo warmth never leaks between runs.
type topology struct {
	engine  *evalpool.Engine
	set     *decisiontable.Set
	svcs    []*allocsvc.Service
	srvs    []*httptest.Server
	client  *allocclient.Client
	jsonCli *allocclient.Client // JSON twin of a binary client, for the binary-vs-JSON check
	rec     *recorder
	bases   []*http.Transport

	// buildS is each pair's table build time, in fastPairs order.
	buildS []float64
}

// topoConfig selects the serving configuration.
type topoConfig struct {
	tables bool // build decision tables for fastPairs and serve from them
	binary bool // speak the binary protocol
	procs  int  // driver goroutines, and the connection cap per shard
}

// newTopology builds a serving stack. Building the decision tables
// (when asked) is part of it, so its wall time is the set-up cost.
func newTopology(cfg topoConfig, rec *recorder) (*topology, error) {
	tp := &topology{rec: rec, engine: evalpool.New(evalpool.Options{})}
	evalpool.SetDefault(tp.engine)
	if cfg.tables {
		tp.set = decisiontable.New(decisiontable.Config{})
		for _, p := range fastPairs {
			t0 := time.Now()
			coordOK, planOK := tp.set.Build(p.platform, p.workload)
			tp.buildS = append(tp.buildS, time.Since(t0).Seconds())
			if !coordOK || (p.planHi > 0 && !planOK) {
				return nil, fmt.Errorf("no decision table for %s/%s (coord %v, plan %v)",
					p.platform, p.workload, coordOK, planOK)
			}
		}
	}
	// Shards are named, not addressed by their random ports: the
	// client's ring hashes the URL, so fixed names give every run the
	// same key placement. The transport dials a name's listener.
	hosts := map[string]int{}
	addrs := map[string]string{}
	var urls []string
	for i := 0; i < shardCount; i++ {
		scfg := allocsvc.Config{Registry: telemetry.New(), Binary: cfg.binary}
		if tp.set != nil {
			scfg.Tables = &timedTables{rec: rec, set: tp.set, shard: i}
		}
		svc := allocsvc.New(scfg)
		srv := httptest.NewServer(tracingHandler(rec, i, svc.Handler()))
		tp.svcs = append(tp.svcs, svc)
		tp.srvs = append(tp.srvs, srv)
		host := fmt.Sprintf("shard-%d.bench:80", i)
		urls = append(urls, "http://"+host)
		hosts[host] = i
		addrs[host] = srv.Listener.Addr().String()
	}
	var dialer net.Dialer
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		real, ok := addrs[addr]
		if !ok {
			return nil, fmt.Errorf("no shard named %s", addr)
		}
		return dialer.DialContext(ctx, network, real)
	}
	newClient := func(binary bool) (*allocclient.Client, error) {
		base := &http.Transport{
			DialContext:         dial,
			MaxConnsPerHost:     cfg.procs,
			MaxIdleConnsPerHost: cfg.procs,
			IdleConnTimeout:     90 * time.Second,
		}
		tp.bases = append(tp.bases, base)
		return allocclient.New(allocclient.Config{
			Shards:          urls,
			Binary:          binary,
			DisableDegraded: true, // a shard failure must count as a failure, not be hidden
			Transport:       &tracingTransport{rec: rec, base: base, shard: hosts},
		})
	}
	var err error
	if tp.client, err = newClient(cfg.binary); err != nil {
		tp.close()
		return nil, err
	}
	if cfg.binary {
		if tp.jsonCli, err = newClient(false); err != nil {
			tp.close()
			return nil, err
		}
	}
	return tp, nil
}

func (tp *topology) close() {
	for _, c := range []*allocclient.Client{tp.client, tp.jsonCli} {
		if c != nil {
			c.Close()
		}
	}
	for _, b := range tp.bases {
		b.CloseIdleConnections()
	}
	for _, srv := range tp.srvs {
		srv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, svc := range tp.svcs {
		_ = svc.Close(ctx) // servers are closed: nothing is in flight
	}
}

// svcStats sums the shards' counters.
func (tp *topology) svcStats() allocsvc.Stats {
	var t allocsvc.Stats
	for _, svc := range tp.svcs {
		s := svc.Stats()
		t.Requests += s.Requests
		t.OK += s.OK
		t.BadInput += s.BadInput
		t.Rejected += s.Rejected
		t.Timeouts += s.Timeouts
		t.Failures += s.Failures
		t.Coalesced += s.Coalesced
		t.TableHits += s.TableHits
		t.TableMisses += s.TableMisses
	}
	return t
}

func subStats(a, b allocsvc.Stats) allocsvc.Stats {
	return allocsvc.Stats{
		Requests: a.Requests - b.Requests, OK: a.OK - b.OK, BadInput: a.BadInput - b.BadInput,
		Rejected: a.Rejected - b.Rejected, Timeouts: a.Timeouts - b.Timeouts, Failures: a.Failures - b.Failures,
		Coalesced: a.Coalesced - b.Coalesced, TableHits: a.TableHits - b.TableHits, TableMisses: a.TableMisses - b.TableMisses,
	}
}

// answer is one served response, kept for the correctness checks.
type answer struct {
	coord   *allocsvc.CoordResponse
	plan    *allocsvc.PlanResponse
	sched   *allocsvc.ScheduleResponse
	tree    *allocsvc.TreeResponse
	recoord *allocsvc.RecoordResponse
	binary  bool
}

// call sends one generated request through cli and returns the answer.
func call(ctx context.Context, cli *allocclient.Client, g *genReq) (answer, allocclient.Meta, error) {
	var a answer
	var meta allocclient.Meta
	var err error
	switch g.Route {
	case allocsvc.RouteCoord:
		var r allocsvc.CoordResponse
		r, meta, err = cli.Coord(ctx, *g.Coord)
		a.coord = &r
	case allocsvc.RoutePlan:
		var r allocsvc.PlanResponse
		r, meta, err = cli.Plan(ctx, *g.Plan)
		a.plan = &r
	case allocsvc.RouteSchedule:
		var r allocsvc.ScheduleResponse
		r, meta, err = cli.Schedule(ctx, *g.Schedule)
		a.sched = &r
	case allocsvc.RouteTree:
		var r allocsvc.TreeResponse
		r, meta, err = cli.Tree(ctx, *g.Tree)
		a.tree = &r
	case allocsvc.RouteRecoord:
		var r allocsvc.RecoordResponse
		r, meta, err = cli.Recoord(ctx, *g.Recoord)
		a.recoord = &r
	default:
		err = fmt.Errorf("unknown route %q", g.Route)
	}
	a.binary = meta.Binary
	return a, meta, err
}

package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/allocclient"
)

// servingSpec is one open-loop serving workload.
type servingSpec struct {
	cfg topoConfig
	gen func(seed uint64, phase, n int) []genReq
	// nominal is the fixed offered rate the latency metrics are taken
	// at, 10–35% of max_rate_rps on a 2-core host when the benchmark
	// was defined.
	nominal float64
	// setupReqs are answered before set-up counts as done: the first
	// answer per route is part of a cold start.
	setupReqs []genReq
	// setupReps is how many times set-up runs; the median is reported.
	setupReps int
	// sampleEvery picks the answers kept for the post-phase checks.
	sampleEvery int
	// checkSample runs the expensive per-answer checks after a phase.
	checkSample func(rep *report, tp *topology, g *genReq, a *answer)
	// traced adds the workload's per-layer replays to a traced run.
	traced func(rep *report, tp *topology, reqs []genReq) error
}

// Phase numbers seed each phase's request stream; probes use
// phaseProbe+k.
const (
	phaseWarm     = 1
	phaseNominal  = 2
	phaseTraced   = 3
	phaseCapacity = 4
	phaseProbe    = 10
)

// latencyLimitMs is the tail latency limit of the max-rate search, for
// both serving workloads: a tenth of the one-second windows power caps
// are enforced over, and far above the tail at the nominal rates, so
// the search finds where a backlog builds rather than where one host
// pause lands.
const latencyLimitMs = 100.0

// server is one serving run in progress.
type server struct {
	spec servingSpec
	rep  *report
	tp   *topology
	rec  *recorder
	ids  atomic.Uint64

	metaMu sync.Mutex
	metas  []allocclient.Meta // traced calls' client metadata
}

// runServing runs a serving workload: set-up (repeated, median
// reported), a warm-up, the nominal-rate phase, then either the
// max-rate search (untraced) or a traced replay of the nominal phase.
func runServing(rep *report, spec servingSpec, seconds float64) error {
	o := rep.o
	spec.cfg.procs = o.procs
	s := &server{spec: spec, rep: rep, rec: newRecorder()}
	reps := spec.setupReps
	if o.trace {
		reps = 1
	}
	var setups []float64
	for k := 0; k < reps; k++ {
		if s.tp != nil {
			s.tp.close()
		}
		t0 := time.Now()
		tp, err := newTopology(spec.cfg, s.rec)
		if err != nil {
			return err
		}
		s.tp = tp
		for i := range spec.setupReqs {
			a, _, err := call(context.Background(), tp.client, &spec.setupReqs[i])
			rep.count(1, 0)
			if err == nil {
				err = checkShape(&spec.setupReqs[i], &a)
			}
			if err != nil {
				rep.fail(fmt.Errorf("set-up request %s: %w", spec.setupReqs[i].Route, err))
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.tp.close()
	// Every phase starts from a collected heap, so the earlier phases'
	// garbage does not shift when its first collections fall.
	rep.heapCheckpoint()
	rep.info["setup_s_each"] = setups
	if spec.cfg.tables {
		rep.info["table_build_s"] = s.tp.buildS
	}

	warmSec := 0.1 * seconds
	nomSec := 0.5 * seconds
	s.phase("warm-up", phaseWarm, spec.nominal, warmSec, false)

	if o.trace {
		return s.tracedRun(nomSec)
	}

	nom, _ := s.phase("nominal", phaseNominal, spec.nominal, nomSec, true)
	// The probes below send as many requests as the host's speed
	// allows, and the memo grows with them, so the heap is reported
	// over the fixed work up to here.
	rep.set("peak_heap_mib", rep.peakHeap)
	rep.set("setup_s", median(setups))
	rep.set("latency_p50_ms", nom.P50ms)
	rep.info["latency_p99_ms"] = nom.Tailms
	rep.info["tail_quantile"] = nom.TailQ
	rep.info["samples"] = nom.lat.n()
	rep.info["gen_lag_p99_ms"] = nom.LagP99ms

	capacity := s.capacity(0.12 * seconds)
	probeSec := 0.06 * seconds
	k := 0
	// The closed-loop capacity is where the knee usually sits just
	// above or below, so the search brackets from there in 8% steps and
	// bisects to 3%, finer than the metric's bound.
	// A failing probe is repeated once at the same rate, so one host
	// pause during a probe does not end the search below the knee; a
	// rate past the knee fails both.
	maxRate := searchMaxRate(capacity, 1.08, 0.03, 8, func(rate float64) bool {
		for try := 0; try < 2; try++ {
			pr, _ := s.phase(fmt.Sprintf("probe-%d", k), phaseProbe+k, rate, probeSec, false)
			k++
			if pr.passes(latencyLimitMs) {
				return true
			}
		}
		return false
	})
	if maxRate == 0 {
		return fmt.Errorf("no offered rate down to %.0f/s met the %.1f ms limit", capacity/math.Pow(1.08, 8), latencyLimitMs)
	}
	rep.set("max_rate_rps", maxRate)

	rep.set("ok_ratio", 1-ratio(float64(rep.failed), float64(rep.attempted)))
	return nil
}

// phase runs one open-loop phase at rate for seconds. When keep is set,
// a sample of the answers is checked after the phase. It returns the
// phase's summary and its request stream.
func (s *server) phase(name string, num int, rate, seconds float64, keep bool) (*phaseResult, []genReq) {
	n := int(math.Ceil(rate * seconds))
	reqs := s.spec.gen(s.rep.o.seed, num, n)
	at := make([]float64, n)
	for i := range reqs {
		at[i] = reqs[i].At
	}
	kept := make([]*answer, n)
	// A generator a second behind has failed the latency limit tenfold.
	outs, aborted := openLoop(at, rate, s.rep.o.procs, time.Second, func(ctx context.Context, i int) (bool, error) {
		g := &reqs[i]
		a, err := s.send(ctx, g)
		if err != nil {
			return false, err
		}
		if err := checkShape(g, &a); err != nil {
			s.rep.fail(err)
			return true, nil
		}
		if keep && i%s.spec.sampleEvery == 0 {
			kept[i] = &a
		}
		return false, nil
	})
	routes := make([]string, n)
	for i := range reqs {
		routes[i] = reqs[i].Route
	}
	pr := summarize(name, rate, outs, routes, aborted)
	// Wrong answers were counted by fail as they arrived.
	for _, o := range outs {
		if o.err != nil {
			s.rep.fail(fmt.Errorf("%s: %w", name, o.err))
		}
	}
	s.rep.phases = append(s.rep.phases, pr)
	s.rep.count(pr.Sent, 0)
	s.rep.heapCheckpoint()
	if keep && s.spec.checkSample != nil {
		for i, a := range kept {
			if a != nil {
				s.spec.checkSample(s.rep, s.tp, &reqs[i], a)
			}
		}
	}
	return pr, reqs
}

// capacity measures the rate the topology sustains when the drivers
// send back to back, a closed loop: the ceiling an open-loop rate can
// approach but not pass. It runs for seconds on its own request stream,
// reusing the stream from the start if it runs out.
func (s *server) capacity(seconds float64) float64 {
	n := int(math.Ceil(4 * s.spec.nominal * seconds))
	reqs := s.spec.gen(s.rep.o.seed, phaseCapacity, n)
	var next, done, failed atomic.Int64
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for d := 0; d < s.rep.o.procs; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for time.Now().Before(deadline) {
				g := &reqs[int(next.Add(1)-1)%n]
				a, err := s.send(ctx, g)
				if err == nil {
					err = checkShape(g, &a)
				}
				if err != nil {
					failed.Add(1)
					s.rep.fail(fmt.Errorf("capacity: %w", err))
					continue
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	rate := float64(done.Load()) / time.Since(start).Seconds()
	sent := int(done.Load() + failed.Load())
	s.rep.phases = append(s.rep.phases, &phaseResult{Name: "capacity", Rate: rate,
		Sent: sent, Succeeded: int(done.Load()), Failed: int(failed.Load())})
	s.rep.count(sent, 0)
	s.rep.info["capacity_rps"] = rate
	s.rep.heapCheckpoint()
	return rate
}

// send issues one request, traced when the recorder is on.
func (s *server) send(ctx context.Context, g *genReq) (answer, error) {
	if !s.rec.on.Load() {
		a, _, err := call(ctx, s.tp.client, g)
		return a, err
	}
	id := s.ids.Add(1)
	switch {
	case g.Coord != nil:
		s.rec.expect(coordKey(g.Coord), id)
	case g.Plan != nil:
		s.rec.expect(planKey(g.Plan), id)
	}
	start := s.rec.now()
	a, meta, err := call(withReqID(ctx, id), s.tp.client, g)
	s.rec.add(span{Req: id, Layer: layerCall, Route: g.Route, Start: start, End: s.rec.now()})
	s.metaMu.Lock()
	s.metas = append(s.metas, meta)
	s.metaMu.Unlock()
	return a, err
}

// tracedRun measures the nominal rate twice, first untraced and then
// traced, on two streams drawn from the same distribution (a replayed
// stream would find the memo warmer the second time), and derives the per-layer metrics from the
// spans and the layers' own counters.
func (s *server) tracedRun(nomSec float64) error {
	rep := s.rep
	plain, _ := s.phase("nominal-untraced", phaseNominal, s.spec.nominal, nomSec, false)

	svc0 := s.tp.svcStats()
	eng0 := s.tp.engine.Stats()
	s.rec.on.Store(true)
	tr, reqs := s.phase("nominal-traced", phaseTraced, s.spec.nominal, nomSec, true)
	s.rec.on.Store(false)
	svc := subStats(s.tp.svcStats(), svc0)
	eng := s.tp.engine.Stats()

	rep.set("bench.gen_lag_ms.p99", tr.LagP99ms)
	rep.set("bench.latency_p99_ms", plain.Tailms)
	rep.set("bench.tracing_overhead_ratio", ratio(tr.P50ms, plain.P50ms))
	rep.set("bench.error_ratio", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.set("allocsvc.coalesce_ratio", svc.CoalesceRate())
	rep.set("allocsvc.rejected_ratio", ratio(float64(svc.Rejected), float64(svc.Requests)))
	rep.set("allocsvc.timeout_ratio", ratio(float64(svc.Timeouts), float64(svc.Requests)))
	if s.spec.cfg.tables {
		rep.set("decisiontable.hit_ratio", svc.TableHitRate())
		rep.set("decisiontable.build_s", sum(s.tp.buildS))
		rep.set("decisiontable.build_s.max", maxOf(s.tp.buildS))
	}
	hits, misses := eng.Hits-eng0.Hits, eng.Misses-eng0.Misses
	rep.set("evalpool.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	rep.set("evalpool.sim_runs_per_req", ratio(float64(eng.SimRuns-eng0.SimRuns), float64(svc.Requests)))

	var retries, failovers, binary int
	for _, m := range s.metas {
		retries += m.Retries
		failovers += m.Failovers
		if m.Binary {
			binary++
		}
	}
	rep.set("allocclient.retries", float64(retries))
	rep.set("allocclient.failovers", float64(failovers))
	rep.set("allocclient.binary_ratio", ratio(float64(binary), float64(len(s.metas))))

	groups := s.rec.group()
	written := groups
	if len(written) > maxWrittenRequests {
		written = written[:maxWrittenRequests]
	}
	if err := writeSpans(rep.o.spans, written); err != nil {
		return err
	}
	rep.info["spans_file"] = rep.o.spans
	s.layerSpans(groups, plain, tr)
	if s.spec.traced != nil {
		return s.spec.traced(rep, s.tp, reqs)
	}
	return nil
}

// layerSpans turns the traced requests' spans into per-layer times and
// checks that they account for the untraced end-to-end median.
func (s *server) layerSpans(groups []traced, plain, tr *phaseResult) {
	rep := s.rep
	var call, callSelf, rtSelf, svcSelf, lookup dist
	handler := map[string]*dist{}
	complete := 0
	for _, g := range groups {
		self := selfTimes(g.spans)
		var hasCall, hasLookup bool
		for i, sp := range g.spans {
			us := float64(sp.End-sp.Start) / 1e3
			switch sp.Layer {
			case layerCall:
				hasCall = true
				call.add(us)
				callSelf.add(float64(self[i]) / 1e3)
			case layerRoundTrip:
				rtSelf.add(float64(self[i]) / 1e3)
			case layerHandler:
				d := handler[sp.Route]
				if d == nil {
					d = &dist{}
					handler[sp.Route] = d
				}
				d.add(us)
				if s.spec.cfg.tables {
					// Self time on table hits: handler minus lookup.
					for _, c := range g.spans {
						if c.Layer == layerLookup && c.Hit {
							svcSelf.add(float64(self[i]) / 1e3)
						}
					}
				} else {
					svcSelf.add(float64(self[i]) / 1e3)
				}
			case layerLookup:
				hasLookup = true
				lookup.add(float64(sp.End - sp.Start))
			}
		}
		if hasCall && (hasLookup || !s.spec.cfg.tables) {
			complete++
		}
	}
	rep.info["traced_requests"] = len(groups)
	rep.info["traced_complete"] = complete
	rep.set("allocclient.call_us.p50", call.q(0.5))
	rep.set("allocclient.call_us.p99", call.q(0.99))
	rep.set("allocclient.self_us.p50", callSelf.q(0.5))
	rep.set("http.roundtrip_us.p50", rtSelf.q(0.5))
	rep.set("allocsvc.self_us.p50", svcSelf.q(0.5))
	for route, d := range handler {
		rep.set("allocsvc.handler_us."+route[len("/v1/"):]+".p50", d.q(0.5))
	}
	if lookup.n() > 0 {
		rep.set("decisiontable.lookup_ns.p50", lookup.q(0.5))
	}
	// Accounting: generator lag plus every layer's median self time,
	// over the untraced end-to-end median.
	lagP50 := tr.lag.q(0.5)
	accounted := lagP50 + (callSelf.q(0.5)+rtSelf.q(0.5)+svcSelf.q(0.5)+lookup.q(0.5)/1e3)/1e3
	rep.set("bench.accounted_ratio", ratio(accounted, plain.P50ms))
	if !s.spec.cfg.tables {
		return // the exact path's queueing is no layer's self time
	}
	rep.info["accounting_tolerance"] = accountingTolerance
	if r := ratio(accounted, plain.P50ms); math.Abs(r-1) > accountingTolerance {
		rep.info["accounting_warning"] = fmt.Sprintf("layer self times sum to %.3f ms against an untraced p50 of %.3f ms", accounted, plain.P50ms)
	}
}

// maxWrittenRequests bounds the requests whose spans a traced run writes
// out (all of them feed the per-layer metrics), keeping a span file to
// a few megabytes.
const maxWrittenRequests = 10000

// accountingTolerance is how far the summed layer self times may sit
// from the untraced end-to-end median before the run flags it. Tracing
// adds its own cost to every span, and a sum of medians is not the
// median of a sum, so the match is approximate.
const accountingTolerance = 0.35

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

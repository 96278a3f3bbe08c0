package des

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/units"
	"repro/internal/workload"
)

// Job states in the fast engine.
const (
	stateWaiting = iota
	stateActive
	stateDone
)

// fastJob is one job's compact record: no strings, no per-job maps, so
// million-job traces stay cache- and memory-friendly.
type fastJob struct {
	units      float64 // remaining work as of the last (re)admission
	arrival    float64
	firstStart float64 // -1 until first admission
	started    float64
	doneT      float64 // absolute completion time while active
	budget     units.Power
	power      units.Power
	rate       float64
	node       int32
	gen        uint32 // bumped on eviction; stale heap/order entries miss
	state      uint8
}

// heapItem is one pending completion, keyed by absolute virtual time
// with an insertion sequence as the deterministic tiebreak.
type heapItem struct {
	t   float64
	seq uint64
	job int32
	gen uint32
}

type doneHeap []heapItem

// before orders completions by time, then by insertion sequence: a
// total order, so every correct heap pops the same sequence.
func (a heapItem) before(b heapItem) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (h *doneHeap) push(it heapItem) {
	*h = append(*h, it)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = it
}

// pop removes the earliest completion. It moves the hole at the root
// down to a leaf along the earlier child, then sifts the last item up
// from there: one comparison per level on the way down instead of two,
// and moves instead of swaps.
func (h *doneHeap) pop() heapItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		q[i] = q[c]
		i = c
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !last.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = last
	return top
}

// probeVal is one cached admission decision: what a single job of the
// run's workload receives on a node of a given platform at a given pool.
type probeVal struct {
	ok bool
	cluster.Admission
}

type probeKey struct {
	plat int
	pool uint64 // float64 bits of the (clamped) pool at probe time
}

// maxProbeCache bounds the admission cache; past it the cache resets
// (pathological pool-value churn) rather than growing without bound.
const maxProbeCache = 1 << 16

// prober caches the admission decision of one job of the run's
// workload per (platform class, pool). A pool at or above the class's
// saturation point sat (cluster.Scheduler.Admit) is clamped to it
// before the lookup: the job is granted its maximum demand whatever
// the surplus, so every such pool shares one entry. Below sat the
// decision depends on the exact pool and is keyed by its bits.
type prober struct {
	s      *cluster.Scheduler
	job    cluster.Job
	policy cluster.SplitPolicy
	nodes  []cluster.Node // one prototype node per class
	sat    []units.Power  // per class; +Inf until the first probe
	cache  map[probeKey]probeVal
}

func newProber(s *cluster.Scheduler, w workload.Workload, policy cluster.SplitPolicy, nodes []cluster.Node) *prober {
	sat := make([]units.Power, len(nodes))
	for i := range sat {
		sat[i] = units.Power(math.Inf(1))
	}
	return &prober{
		s: s, job: cluster.Job{ID: "probe", Workload: w}, policy: policy,
		nodes: nodes, sat: sat, cache: map[probeKey]probeVal{},
	}
}

// probe returns the decision for one job on a node of class at pool.
func (p *prober) probe(class int, pool units.Power) (probeVal, error) {
	if pool > p.sat[class] {
		pool = p.sat[class]
	}
	key := probeKey{plat: class, pool: math.Float64bits(pool.Watts())}
	if v, ok := p.cache[key]; ok {
		return v, nil
	}
	a, sat, ok, err := p.s.Admit(p.nodes[class], p.job, pool, p.policy)
	if err != nil {
		return probeVal{}, err
	}
	p.sat[class] = sat
	if pool > sat {
		// The first probe of the class ran above sat: file its answer
		// under sat, where every later probe above sat looks.
		key.pool = math.Float64bits(sat.Watts())
	}
	v := probeVal{ok: ok, Admission: a}
	if len(p.cache) >= maxProbeCache {
		p.cache = map[probeKey]probeVal{}
	}
	p.cache[key] = v
	return v, nil
}

// admEntry is one admission, in order, for most-recently-started
// eviction scans. Entries whose job was since completed or evicted are
// skipped lazily via the state/gen check.
type admEntry struct {
	job int32
	gen uint32
}

// runFast executes the simulation with a completion heap and admission
// caching. It keeps exact mode's semantics — admission through the
// shared Scheduler.Admit, grant-for-lifetime, evict-latest under
// shocks, re-queue at the head — but indexes state for scale instead of
// rescanning it, so its float operation order (and therefore its exact
// event times) can differ from exact mode in the last ulps.
// Deterministic: one seed, one trace hash.
func runFast(cfg Config, arrs []jobArrival) (Result, error) {
	out := Result{Mode: ModeFast}
	s := cfg.Sched

	// Platform classes: nodes grouped by platform name, in first-seen
	// order. Admission probes once per (class, pool) and reuses the
	// decision for every node of the class.
	classOf := make([]int, len(s.Nodes))
	classIdx := map[string]int{}
	var protoNodes []cluster.Node
	for i, n := range s.Nodes {
		ci, ok := classIdx[n.Platform.Name]
		if !ok {
			ci = len(protoNodes)
			classIdx[n.Platform.Name] = ci
			protoNodes = append(protoNodes, n)
		}
		classOf[i] = ci
	}
	free := make([][]int32, len(protoNodes))
	for i := len(s.Nodes) - 1; i >= 0; i-- {
		// Reverse push so class stacks pop nodes in scheduler order.
		free[classOf[i]] = append(free[classOf[i]], int32(i))
	}
	down := make([]bool, len(s.Nodes))
	nodeJob := make([]int32, len(s.Nodes))
	for i := range nodeJob {
		nodeJob[i] = -1
	}

	// Jobs: cfg.Jobs arrive at t=0 ahead of the generated trace, so job
	// index order IS arrival order and the FIFO queue can be an index
	// cursor instead of a deque.
	jobs := make([]fastJob, 0, len(cfg.Jobs)+len(arrs))
	for _, j := range cfg.Jobs {
		if j.Units <= 0 {
			return out, fmt.Errorf("cluster: job %q has non-positive work", j.ID)
		}
		jobs = append(jobs, fastJob{units: j.Units, firstStart: -1, node: -1})
	}
	for _, a := range arrs {
		jobs = append(jobs, fastJob{units: a.units, arrival: a.at, firstStart: -1, node: -1})
	}
	out.Arrived = len(jobs)
	qHead, qArrived := 0, len(cfg.Jobs) // FIFO window [qHead, qArrived)
	var readmit []int32                 // evictions re-enter here, LIFO like exact mode's head prepend

	// Fault schedules over the same horizon formula as exact mode.
	var totalUnits float64
	for i := range jobs {
		totalUnits += jobs[i].units
	}
	horizon := faultHorizon(totalUnits)
	// Outage and shock edges are pulled as the event cursor reaches
	// them: the horizon runs far past the last job, and the faults beyond
	// it are never drawn. A nil injector yields none.
	outages := outageStream(cfg.Injector, s, horizon)
	shocks := cfg.Injector.ShockEdges(horizon, s.Budget)

	pool := s.Budget
	committed := units.Power(0)
	shockHeld := units.Power(0)
	var faultSum FaultSummary
	conserve := func() {
		dev := pool + committed + shockHeld - s.Budget
		if dev < 0 {
			dev = -dev
		}
		if dev > faultSum.MaxConservationError {
			faultSum.MaxConservationError = dev
		}
	}

	prober := newProber(s, cfg.Workload, cfg.Policy, protoNodes)

	var heap doneHeap
	var seq uint64
	var admOrder []admEntry
	activeCount := 0
	hash := newTraceHash()
	var stats agg
	var energy units.Energy
	now := 0.0

	// peekDone drops stale heap entries and returns the next real
	// completion time (Inf when none).
	peekDone := func() float64 {
		for len(heap) > 0 {
			top := heap[0]
			jb := &jobs[top.job]
			if jb.state == stateActive && jb.gen == top.gen {
				return top.t
			}
			heap.pop()
		}
		return math.Inf(1)
	}

	queued := func() int { return len(readmit) + (qArrived - qHead) }

	removeFree := func(node int32) {
		st := free[classOf[node]]
		for i, n := range st {
			if n == node {
				free[classOf[node]] = append(st[:i], st[i+1:]...)
				return
			}
		}
	}

	// admitOne seats the next queued job on some free node, probing each
	// platform class in order. Every queued job runs the same workload,
	// so if the head job cannot start now, none behind it can either —
	// the admission pass is O(classes), not O(queue).
	admitOne := func() (bool, error) {
		var j int32
		fromReadmit := false
		if n := len(readmit); n > 0 {
			j = readmit[n-1]
			fromReadmit = true
		} else if qHead < qArrived {
			j = int32(qHead)
		} else {
			return false, nil
		}
		for class := range free {
			st := free[class]
			// Drop downed nodes that failure handling missed.
			for len(st) > 0 && down[st[len(st)-1]] {
				st = st[:len(st)-1]
			}
			free[class] = st
			if len(st) == 0 {
				continue
			}
			v, err := prober.probe(class, pool)
			if err != nil {
				return false, err
			}
			if !v.ok {
				continue
			}
			node := st[len(st)-1]
			free[class] = st[:len(st)-1]
			if fromReadmit {
				readmit = readmit[:len(readmit)-1]
			} else {
				qHead++
			}
			jb := &jobs[j]
			jb.state = stateActive
			jb.node = node
			jb.started = now
			if jb.firstStart < 0 {
				jb.firstStart = now
			}
			jb.budget, jb.power, jb.rate = v.Budget, v.Power, v.Rate
			jb.doneT = now + jb.units/v.Rate
			pool -= v.Budget
			committed += v.Budget
			nodeJob[node] = j
			seq++
			heap.push(heapItem{t: jb.doneT, seq: seq, job: j, gen: jb.gen})
			admOrder = append(admOrder, admEntry{job: j, gen: jb.gen})
			activeCount++
			hash.event(now, evStart, j, node)
			return true, nil
		}
		return false, nil
	}
	// admit runs one admission pass and records it like AdmitWaiting
	// does: the jobs it started, and the queue and running counts left.
	admit := func() error {
		started := 0
		for {
			ok, err := admitOne()
			if err != nil {
				return err
			}
			if !ok {
				cluster.ObserveAdmissionPass(started, queued(), activeCount)
				return nil
			}
			started++
		}
	}

	evictJob := func(j int32, keepNode bool) {
		jb := &jobs[j]
		rem := (jb.doneT - now) * jb.rate
		if rem < 0 {
			rem = 0
		}
		jb.units = rem
		energy += units.Energy(jb.power.Watts() * (now - jb.started))
		pool += jb.budget
		committed -= jb.budget
		faultSum.BudgetReclaimed += jb.budget
		faultSum.Readmissions++
		node := jb.node
		nodeJob[node] = -1
		if keepNode {
			free[classOf[node]] = append(free[classOf[node]], node)
		}
		jb.state = stateWaiting
		jb.gen++
		jb.node = -1
		activeCount--
		readmit = append(readmit, j)
		hash.event(now, evSuspend, j, node)
	}

	// t=0 admission, as in exact mode: a queue
	// that cannot start on a full budget and healthy nodes never will.
	if err := admit(); err != nil {
		return out, err
	}
	conserve()
	if activeCount == 0 && queued() > 0 {
		return out, fmt.Errorf("cluster: no job can start (budget %v too small for every job): %w",
			s.Budget, cluster.ErrStarved)
	}

	ai := 0
	steps := 0
	for ; activeCount > 0 || queued() > 0 || ai < len(arrs); steps++ {
		conserve()
		if steps >= cfg.MaxEvents {
			return out, fmt.Errorf("des: fast engine exceeded %d events (spec too hostile?)", cfg.MaxEvents)
		}
		nextDone := peekDone()
		nextOutage := math.Inf(1)
		if ev, ok := outages.Peek(); ok {
			nextOutage = ev.At
		}
		nextShock := math.Inf(1)
		if ev, ok := shocks.Peek(); ok {
			nextShock = ev.At
		}
		nextArr := math.Inf(1)
		if ai < len(arrs) {
			nextArr = arrs[ai].at
		}

		if math.IsInf(nextDone, 1) && math.IsInf(nextOutage, 1) && math.IsInf(nextShock, 1) && math.IsInf(nextArr, 1) {
			return out, fmt.Errorf("cluster: %d job(s) can never start (pool %v): %w",
				queued(), pool, cluster.ErrStarved)
		}

		switch {
		case nextOutage <= nextDone && nextOutage <= nextShock && nextOutage <= nextArr:
			ev := outages.Pop()
			if ev.At > now {
				now = ev.At
			}
			if ev.Up {
				if !down[ev.Node] {
					continue
				}
				down[ev.Node] = false
				free[classOf[ev.Node]] = append(free[classOf[ev.Node]], ev.Node)
				faultSum.NodeRecoveries++
				hash.event(now, evNodeUp, -1, ev.Node)
				if err := admit(); err != nil {
					return out, err
				}
				continue
			}
			if down[ev.Node] {
				continue
			}
			down[ev.Node] = true
			faultSum.NodeFailures++
			hash.event(now, evNodeFail, -1, ev.Node)
			if j := nodeJob[ev.Node]; j >= 0 {
				evictJob(j, false)
			} else {
				removeFree(ev.Node)
			}
			if err := admit(); err != nil {
				return out, err
			}

		case nextShock <= nextDone && nextShock <= nextArr:
			ev := shocks.Pop()
			if ev.At > now {
				now = ev.At
			}
			pool += ev.Delta
			shockHeld -= ev.Delta
			if ev.Delta < 0 {
				faultSum.Shocks++
				hash.event(now, evShock, -1, -1)
				// Evict most recently started jobs until committed grants
				// fit again. Admission order is started order, so scan the
				// order log from the tail, skipping stale entries.
				for pool < 0 && activeCount > 0 {
					for len(admOrder) > 0 {
						e := admOrder[len(admOrder)-1]
						jb := &jobs[e.job]
						if jb.state == stateActive && jb.gen == e.gen {
							break
						}
						admOrder = admOrder[:len(admOrder)-1]
					}
					if len(admOrder) == 0 {
						break
					}
					e := admOrder[len(admOrder)-1]
					admOrder = admOrder[:len(admOrder)-1]
					evictJob(e.job, true)
				}
			} else {
				hash.event(now, evRestore, -1, -1)
			}
			if err := admit(); err != nil {
				return out, err
			}

		case nextArr <= nextDone:
			if nextArr > now {
				now = nextArr
			}
			at := arrs[ai].at
			for ai < len(arrs) && arrs[ai].at == at {
				hash.event(now, evArrive, int32(qArrived), -1)
				qArrived++
				ai++
			}
			if err := admit(); err != nil {
				return out, err
			}

		default:
			it := heap.pop()
			jb := &jobs[it.job]
			if it.t > now {
				now = it.t
			}
			jb.state = stateDone
			energy += units.Energy(jb.power.Watts() * (now - jb.started))
			stats.finish(jb.arrival, jb.firstStart, now)
			pool += jb.budget
			committed -= jb.budget
			node := jb.node
			nodeJob[node] = -1
			jb.node = -1
			free[classOf[node]] = append(free[classOf[node]], node)
			activeCount--
			hash.event(now, evFinish, it.job, node)
			if err := admit(); err != nil {
				return out, err
			}
		}
	}
	conserve()
	faultSum.PoolLeft = pool + shockHeld

	out.EngineEvents = steps
	out.Makespan = now
	out.Energy = energy
	out.Faults = faultSum
	out.TraceHash = hash.h
	stats.fill(&out)
	return out, nil
}

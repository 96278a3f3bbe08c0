package des

import (
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/units"
	"repro/internal/workload"
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
	node       int32  // while running
	gen        uint32 // bumped as the job leaves service: stale heap and log entries miss
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

func newProber(s *cluster.Scheduler, w workload.Workload, policy cluster.SplitPolicy, nodes []cluster.Node) prober {
	sat := make([]units.Power, len(nodes))
	for i := range sat {
		sat[i] = units.Power(math.Inf(1))
	}
	return prober{
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
// skipped lazily via the gen check.
type admEntry struct {
	job int32
	gen uint32
}

// fastMode is ModeFast's state. It keeps exact mode's semantics —
// admission through the shared Scheduler.Admit, grant-for-lifetime,
// evict-latest under shocks, re-queue at the head — but indexes state
// for scale instead of rescanning it. Its clock is absolute: the heap
// keys completions by absolute virtual time and advance only moves the
// clock forward, so its event times can differ from exact mode's
// relative steps in the last ulps.
type fastMode struct {
	lifecycle
	// Platform classes: nodes grouped by platform name, in first-seen
	// order. Admission probes once per (class, pool) and reuses the
	// decision for every node of the class.
	classOf []int
	free    [][]int32 // per class, a stack of free nodes
	nodeJob []int32   // running job per node, -1 when idle
	prober  prober

	// Jobs: cfg.Jobs arrive at t=0 ahead of the generated trace, so job
	// index order IS arrival order and the FIFO queue can be an index
	// cursor instead of a deque.
	jobs            []fastJob
	qHead, qArrived int     // FIFO window [qHead, qArrived)
	readmit         []int32 // evictions re-enter here, LIFO like exact mode's head prepend

	heap     doneHeap
	seq      uint64
	admOrder []admEntry
	active   int
	granted  units.Power // Σ grants of the running jobs
}

func runFast(cfg Config, arrs []jobArrival) (Result, error) {
	s := cfg.Sched
	m := &fastMode{
		lifecycle: newLifecycle(cfg, arrs),
		classOf:   make([]int, len(s.Nodes)),
		nodeJob:   make([]int32, len(s.Nodes)),
		jobs:      make([]fastJob, 0, len(cfg.Jobs)+len(arrs)),
		qArrived:  len(cfg.Jobs),
	}
	var protoNodes []cluster.Node
	var size []int // nodes per class
	for i, n := range s.Nodes {
		ci := 0
		for ci < len(protoNodes) && protoNodes[ci].Platform.Name != n.Platform.Name {
			ci++
		}
		if ci == len(protoNodes) {
			protoNodes, size = append(protoNodes, n), append(size, 0)
		}
		size[ci]++
		m.classOf[i] = ci
		m.nodeJob[i] = -1
	}
	m.free = make([][]int32, len(protoNodes))
	for c := range m.free {
		m.free[c] = make([]int32, 0, size[c])
	}
	for i := len(s.Nodes) - 1; i >= 0; i-- {
		m.nodeUp(int32(i)) // reverse push: class stacks pop in scheduler order
	}
	m.prober = newProber(s, cfg.Workload, cfg.Policy, protoNodes)
	for _, j := range cfg.Jobs {
		m.jobs = append(m.jobs, fastJob{units: j.Units, firstStart: -1})
	}
	for _, a := range arrs {
		m.jobs = append(m.jobs, fastJob{units: a.units, arrival: a.at, firstStart: -1})
	}
	return run(&m.lifecycle, m)
}

func (m *fastMode) until(at float64) float64 { return at }

// nextDone drops stale heap entries and returns the next real
// completion time.
func (m *fastMode) nextDone() float64 {
	for len(m.heap) > 0 {
		if top := m.heap[0]; m.jobs[top.job].gen == top.gen {
			return top.t
		}
		m.heap.pop()
	}
	return math.Inf(1)
}

func (m *fastMode) advance(at float64) {
	if at > m.now {
		m.now = at
	}
}

// admit seats queued jobs, re-admissions first, on the first platform
// class whose free node the cached probe admits at the current pool,
// and records the pass like AdmitWaiting does. Every queued job runs
// the same workload, so once the head job cannot start none behind it
// can either: a pass is O(classes), not O(queue).
func (m *fastMode) admit() error {
	started := 0
next:
	for m.queued() > 0 {
		for class, st := range m.free {
			if len(st) == 0 {
				continue
			}
			v, err := m.prober.probe(class, m.pool)
			if err != nil {
				return err
			}
			if !v.ok {
				continue
			}
			var j int32
			if n := len(m.readmit); n > 0 {
				j, m.readmit = m.readmit[n-1], m.readmit[:n-1]
			} else {
				j = int32(m.qHead)
				m.qHead++
			}
			node := st[len(st)-1]
			m.free[class] = st[:len(st)-1]
			jb := &m.jobs[j]
			jb.node = node
			jb.started = m.now
			if jb.firstStart < 0 {
				jb.firstStart = m.now
			}
			jb.budget, jb.power, jb.rate = v.Budget, v.Power, v.Rate
			jb.doneT = m.now + jb.units/v.Rate
			m.pool -= v.Budget
			m.granted += v.Budget
			m.nodeJob[node] = j
			m.seq++
			m.heap.push(heapItem{t: jb.doneT, seq: m.seq, job: j, gen: jb.gen})
			m.admOrder = append(m.admOrder, admEntry{job: j, gen: jb.gen})
			m.active++
			m.hash.event(m.now, evStart, j, node)
			started++
			continue next
		}
		break
	}
	cluster.ObserveAdmissionPass(started, m.queued(), m.active)
	return nil
}

func (m *fastMode) arrive(int) { m.qArrived++ }

func (m *fastMode) finish() stopped {
	j := m.heap.pop().job
	d := m.stop(j)
	d.arrival, d.firstStart = m.jobs[j].arrival, m.jobs[j].firstStart
	m.nodeUp(d.node)
	return d
}

func (m *fastMode) evict(job int, keepNode bool) stopped {
	j := int32(job)
	jb := &m.jobs[j]
	rem := (jb.doneT - m.now) * jb.rate
	if rem < 0 {
		rem = 0
	}
	jb.units = rem
	d := m.stop(j)
	if keepNode {
		m.nodeUp(d.node)
	}
	m.readmit = append(m.readmit, j)
	return d
}

// stop detaches running job j from its node and its grant.
func (m *fastMode) stop(j int32) stopped {
	jb := &m.jobs[j]
	m.granted -= jb.budget
	m.nodeJob[jb.node] = -1
	m.active--
	jb.gen++
	return stopped{job: j, node: jb.node, budget: jb.budget, power: jb.power, started: jb.started}
}

// latest pops the most recently started running job off the admission
// log. Admission order is started order, so the log's tail is the
// latest start once stale entries are skipped; every running job has
// its entry.
func (m *fastMode) latest() int {
	for {
		e := m.admOrder[len(m.admOrder)-1]
		m.admOrder = m.admOrder[:len(m.admOrder)-1]
		if m.jobs[e.job].gen == e.gen {
			return int(e.job)
		}
	}
}

// nodeUp pushes node n onto its class's free stack.
func (m *fastMode) nodeUp(n int32) {
	m.free[m.classOf[n]] = append(m.free[m.classOf[n]], n)
}

func (m *fastMode) nodeDown(n int32) int {
	if j := m.nodeJob[n]; j >= 0 {
		return int(j)
	}
	c := m.classOf[n] // an idle node that is up is on its class's free stack
	i := slices.Index(m.free[c], n)
	m.free[c] = slices.Delete(m.free[c], i, i+1)
	return -1
}

func (m *fastMode) committed() units.Power { return m.granted }
func (m *fastMode) queued() int            { return len(m.readmit) + (m.qArrived - m.qHead) }
func (m *fastMode) running() int           { return m.active }

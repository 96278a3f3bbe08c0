package des

import (
	"math"
	"reflect"
	"slices"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// admitter is the admission state: nodes and their free lists,
// workload classes, cached decisions and the admission log.
type admitter struct {
	nodes []nodeRec
	kinds []kindList // per kind slot
	wls   []wlClass  // per workload class
	jobWl []int32    // workload class per t=0 job
	genWl int32      // workload class of the generated jobs
	// queuedWl counts the workload classes with a queued job. The epoch
	// moves at every pass and admission, when the pool and heads change.
	queuedWl int
	epoch    uint64
	prober   prober
	adm      []admEntry
}

// nodeRec is one node's run state.
type nodeRec struct {
	job        int32 // running job, -1 when idle
	plat, kind int32 // platform class and kind slot
	next, prev int32 // free-list links while free; -1 ends a list
	down       bool
}

// kindList is one hardware kind's free nodes, a FIFO linked through the
// nodes: a freed, recovered or shock-kept node joins the tail, a job
// takes the head, and a failed idle node leaves in place.
type kindList struct {
	kind       hw.Kind
	head, tail int32 // -1 when empty
}

// wlClass is one workload class of the run.
type wlClass struct {
	kind    int32  // kind slot
	queued  int    // queued jobs of the class
	refused uint64 // the epoch of the class's last refusal
}

// admEntry is one admission, for the shock eviction scan; it goes
// stale when its job leaves service (the gen check).
type admEntry struct {
	job     int32
	gen     uint32
	started float64
}

// newAdmitter classes the run's nodes and workloads and frees every
// node, in node order. Platforms are classed by value: nodes built from
// one catalog platform share its spec pointers, and a class split by
// fresh pointers costs only cache hits, never a wrong answer. Workloads
// are classed by content (reflect.DeepEqual), never by name: same-named
// variants must not share admissions.
func newAdmitter(cfg Config) admitter {
	s := cfg.Sched
	a := admitter{nodes: make([]nodeRec, len(s.Nodes))}
	var plats []hw.Platform
	for i, n := range s.Nodes {
		c := slices.Index(plats, n.Platform)
		if c < 0 {
			c, plats = len(plats), append(plats, n.Platform)
		}
		a.nodes[i] = nodeRec{job: -1, plat: int32(c), kind: a.kindSlot(n.Platform.Kind)}
		a.pushFree(int32(i))
	}
	var wls []workload.Workload
	intern := func(w workload.Workload) int32 {
		i := slices.IndexFunc(wls, func(v workload.Workload) bool { return reflect.DeepEqual(v, w) })
		if i < 0 {
			i, wls = len(wls), append(wls, w)
		}
		return int32(i)
	}
	for _, j := range cfg.Jobs {
		a.jobWl = append(a.jobWl, intern(j.Workload))
	}
	a.genWl = intern(cfg.Workload)
	a.wls = make([]wlClass, len(wls))
	for i, w := range wls {
		a.wls[i].kind = a.kindSlot(w.Kind)
	}
	a.prober = newProber(s, cfg.Policy, len(plats), wls)
	return a
}

// kindSlot is the slot of hardware kind k, added (with no free node)
// on first sight.
func (a *admitter) kindSlot(k hw.Kind) int32 {
	i := slices.IndexFunc(a.kinds, func(l kindList) bool { return l.kind == k })
	if i < 0 {
		i, a.kinds = len(a.kinds), append(a.kinds, kindList{kind: k, head: -1, tail: -1})
	}
	return int32(i)
}

// pushFree appends node n to its kind's free FIFO.
func (a *admitter) pushFree(n int32) {
	r := &a.nodes[n]
	k := &a.kinds[r.kind]
	r.next, r.prev = -1, k.tail
	if k.tail >= 0 {
		a.nodes[k.tail].next = n
	} else {
		k.head = n
	}
	k.tail = n
}

// removeFree unlinks free node n from its kind's FIFO.
func (a *admitter) removeFree(n int32) {
	r := &a.nodes[n]
	k := &a.kinds[r.kind]
	if r.prev >= 0 {
		a.nodes[r.prev].next = r.next
	} else {
		k.head = r.next
	}
	if r.next >= 0 {
		a.nodes[r.next].prev = r.prev
	} else {
		k.tail = r.prev
	}
}

// wlOf is job j's workload class.
func (a *admitter) wlOf(j int32) int32 {
	if int(j) < len(a.jobWl) {
		return a.jobWl[j]
	}
	return a.genWl
}

// enqueue queues job j: an arrival at the tail, a re-admission at the
// head, in the slot a start freed before qHead if there is one.
func (l *lifecycle) enqueue(j int32, head bool) {
	c := &l.wls[l.wlOf(j)]
	if c.queued++; c.queued == 1 {
		l.queuedWl++
	}
	switch {
	case !head:
		l.queue = append(l.queue, j)
	case l.qHead > 0:
		l.qHead--
		l.queue[l.qHead] = j
	default:
		l.queue = slices.Insert(l.queue, 0, j)
	}
}

// queued counts the waiting jobs.
func (l *lifecycle) queued() int { return len(l.queue) - l.qHead }

// dequeue takes the job at queue position i out of the queue: the head
// by advancing qHead (a FIFO start), any other in place (a backfill
// start). Once the consumed prefix is half the slice it is compacted
// away, so a long trace keeps the queue at most twice its length.
func (l *lifecycle) dequeue(i int) {
	if i == 0 {
		l.qHead++
	} else {
		l.queue = slices.Delete(l.queue, l.qHead+i, l.qHead+i+1)
	}
	if 2*l.qHead >= len(l.queue) {
		l.queue = l.queue[:copy(l.queue, l.queue[l.qHead:])]
		l.qHead = 0
	}
}

// admit is the admission pass run after every event. It walks the
// queue in order and starts each job whose kind has a free node and
// whose admission at that node and the current pool is productive. A
// job takes the head free node of its kind, so until the next admission
// a (head platform, workload) pair has one answer: a job whose workload
// was already refused is skipped without asking again. Under FIFO the pass ends at the first refusal; under backfill
// it ends once every queued workload has been refused.
func (l *lifecycle) admit() error {
	started, refused := 0, 0
	l.epoch++
	for i := 0; i < l.queued(); {
		j := l.queue[l.qHead+i]
		w := l.wlOf(j)
		c := &l.wls[w]
		if c.refused == l.epoch {
			i++
			continue
		}
		n := l.kinds[c.kind].head
		var a cluster.Admission // the zero Admission is a refusal
		if n >= 0 {
			var err error
			if a, err = l.prober.probe(n, l.nodes[n].plat, w, l.pool); err != nil {
				return err
			}
		}
		if a.Rate == 0 {
			c.refused = l.epoch
			refused++
			if l.cfg.Discipline == cluster.DisciplineFIFO || refused == l.queuedWl {
				break
			}
			i++
			continue
		}
		l.start(i, j, n, a)
		if c.queued--; c.queued == 0 {
			l.queuedWl--
		}
		started, refused = started+1, 0
		l.epoch++
	}
	cluster.ObserveAdmissionPass(started, l.queued(), l.active)
	return nil
}

// start puts the job at queue position i, j, into service on node n
// under admission a, and keys its completion at now plus the time its
// work takes at the granted rate.
func (l *lifecycle) start(i int, j, n int32, a cluster.Admission) {
	l.dequeue(i)
	r := &l.jobs[j]
	r.Admission, r.node, r.started = a, n, l.now
	if r.firstStart < 0 {
		r.firstStart = l.now
	}
	r.doneT = l.now + r.units/r.Rate
	l.seq++
	l.heap.push(heapItem{t: r.doneT, seq: l.seq, job: j, gen: r.gen})
	l.pool -= a.Budget
	l.granted += a.Budget
	l.removeFree(n)
	l.nodes[n].job = j
	l.active++
	if len(l.adm) == cap(l.adm) && 4*l.active <= len(l.adm) {
		// Three quarters of the log are stale: drop them rather than grow.
		l.adm = slices.DeleteFunc(l.adm, func(e admEntry) bool { return !l.live(e) })
	}
	l.adm = append(l.adm, admEntry{job: j, gen: r.gen, started: l.now})
	l.event(evStart, j, n)
}

// latest is the running job a budget shock sheds first: the one that
// started last and, of those that started then, the one admitted
// first. The log is in start order, so they end it; stale entries are
// skipped, and dropped once they reach the tail.
func (l *lifecycle) latest() int32 {
	for !l.live(l.adm[len(l.adm)-1]) {
		l.adm = l.adm[:len(l.adm)-1]
	}
	pick := l.adm[len(l.adm)-1]
	for i := len(l.adm) - 2; i >= 0 && l.adm[i].started == pick.started; i-- {
		if l.live(l.adm[i]) {
			pick = l.adm[i]
		}
	}
	return pick.job
}

// live reports whether e's job is still in the service e records.
func (l *lifecycle) live(e admEntry) bool { return l.jobs[e.job].gen == e.gen }

type probeKey struct {
	plat, wl int32
	pool     uint64 // float64 bits of the (clamped) pool at probe time
}

// maxProbeCache bounds the admission cache; past it the cache resets
// (pathological pool-value churn) rather than growing without bound.
const maxProbeCache = 1 << 16

// prober caches cluster.Scheduler.Admit per (platform class, workload
// class, pool); a refusal is the zero Admission. A pool at or above the pair's saturation point sat is
// clamped to it before the lookup: the job is granted its maximum
// demand whatever the surplus, so every such pool shares one entry.
// Below sat the decision depends on the exact pool and is keyed by its
// bits.
type prober struct {
	s      *cluster.Scheduler
	policy cluster.SplitPolicy
	wls    []workload.Workload // by workload class
	sat    []units.Power       // per (platform, workload) pair; 0 until its first probe
	cache  map[probeKey]cluster.Admission
}

func newProber(s *cluster.Scheduler, policy cluster.SplitPolicy, plats int, wls []workload.Workload) prober {
	return prober{s: s, policy: policy, wls: wls, sat: make([]units.Power, plats*len(wls)), cache: map[probeKey]cluster.Admission{}}
}

// probe returns the decision for a job of class wl on node n, of
// platform class plat, at pool.
func (p *prober) probe(n, plat, wl int32, pool units.Power) (cluster.Admission, error) {
	si := int(plat)*len(p.wls) + int(wl)
	if sat := p.sat[si]; sat > 0 && pool > sat {
		pool = sat
	}
	key := probeKey{plat: plat, wl: wl, pool: math.Float64bits(pool.Watts())}
	if v, ok := p.cache[key]; ok {
		return v, nil
	}
	a, sat, _, err := p.s.Admit(p.s.Nodes[n], cluster.Job{Workload: p.wls[wl]}, pool, p.policy)
	if err != nil {
		return a, err
	}
	p.sat[si] = sat
	if pool > sat {
		// The first probe of the pair ran above sat: file its answer
		// under sat, where every later probe above sat looks.
		key.pool = math.Float64bits(sat.Watts())
	}
	if len(p.cache) >= maxProbeCache {
		p.cache = map[probeKey]cluster.Admission{}
	}
	p.cache[key] = a
	return a, nil
}

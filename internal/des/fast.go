package des

import (
	"fmt"
	"math"

	"repro/internal/units"
)

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

// fastMode is ModeFast's state. It runs exact mode's rules through
// the shared lifecycle and admission pass, but keeps its clock and
// queue for scale instead of rescanning them. Its clock is absolute:
// the heap keys completions by absolute virtual time and advance only
// moves the clock forward, so its event times can differ from exact
// mode's relative steps in the last ulps.
type fastMode struct {
	lifecycle

	// cfg.Jobs arrive at t=0 ahead of the generated trace, so job index
	// order IS arrival order and the FIFO queue can be an index cursor
	// instead of a deque.
	qHead, qArrived int     // FIFO window [qHead, qArrived)
	readmit         []int32 // evictions re-enter here, LIFO: the latest eviction heads the queue

	heap    doneHeap
	seq     uint64
	granted units.Power // Σ grants of the running jobs
}

func runFast(cfg Config, arrs []jobArrival) (Result, error) {
	m := &fastMode{lifecycle: newLifecycle(cfg, arrs)}
	for i, w := range m.jobWl {
		if j := cfg.Jobs[i]; w != m.genWl {
			return Result{}, fmt.Errorf("des: fast mode runs every job as %q, but job %q runs %q (use exact mode for mixed workloads)",
				cfg.Workload.Name, j.ID, j.Workload.Name)
		}
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

// push queues job j. Jobs arrive in index order, so an arrival only
// widens the FIFO window.
func (m *fastMode) push(j int32, head bool) {
	if head {
		m.readmit = append(m.readmit, j)
	} else {
		m.qArrived++
	}
}

func (m *fastMode) queued() int { return len(m.readmit) + (m.qArrived - m.qHead) }

func (m *fastMode) queuedJob(i int) int32 {
	if n := len(m.readmit); i < n {
		return m.readmit[n-1-i]
	}
	return int32(m.qHead + i - len(m.readmit))
}

// start takes the queue head into service. The pass never starts a job
// behind it: every fast-mode job runs one workload, so the pass ends at
// its first refusal.
func (m *fastMode) start(int) {
	var j int32
	if n := len(m.readmit); n > 0 {
		j, m.readmit = m.readmit[n-1], m.readmit[:n-1]
	} else {
		j = int32(m.qHead)
		m.qHead++
	}
	r := &m.jobs[j]
	r.doneT = m.now + r.units/r.Rate
	m.granted += r.Budget
	m.seq++
	m.heap.push(heapItem{t: r.doneT, seq: m.seq, job: j, gen: r.gen})
}

func (m *fastMode) finish() int32 {
	j := m.heap.pop().job
	m.granted -= m.jobs[j].Budget
	return j
}

func (m *fastMode) evict(j int32) {
	r := &m.jobs[j]
	r.units = max(0, (r.doneT-m.now)*r.Rate)
	m.granted -= r.Budget
}

func (m *fastMode) committed() units.Power { return m.granted }

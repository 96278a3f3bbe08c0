package des

import (
	"math"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/units"
)

// exactMode is ModeExact's state: a queue of job indices and the
// running jobs in admission order, rescanned at every event. Its clock
// runs in relative steps: the loop compares times to events, and
// advance drains every running job's remaining work by the step. The
// goldens pin its float expressions; do not "simplify" their shape.
type exactMode struct {
	lifecycle
	waiting, active []int32
	done            int // index in active of the job nextDone found
}

func runExact(cfg Config, arrs []jobArrival) (Result, error) {
	m := &exactMode{lifecycle: newLifecycle(cfg, arrs)}
	m.res = &cluster.QueueResult{Stats: map[string]cluster.JobStat{}}
	m.log = cfg.Log
	m.ids = make([]string, 0, len(m.jobs))
	for _, j := range cfg.Jobs {
		m.ids = append(m.ids, j.ID)
	}
	for i := range arrs {
		m.ids = append(m.ids, arrivalID(i))
	}
	out, err := run(&m.lifecycle, m)
	if err != nil {
		return out, err
	}
	m.res.Makespan, m.res.Energy = out.Makespan, out.Energy
	sort.SliceStable(m.res.Events, func(i, j int) bool { return m.res.Events[i].Time < m.res.Events[j].Time })
	out.Queue = m.res
	return out, nil
}

func (m *exactMode) until(at float64) float64 { return at - m.now }

func (m *exactMode) nextDone() float64 {
	next, di := math.Inf(1), -1
	for i, j := range m.active {
		r := &m.jobs[j]
		t := r.units / r.Rate
		if t < next {
			next, di = t, i
		}
	}
	m.done = di
	return next
}

func (m *exactMode) advance(dt float64) {
	m.now += dt
	for _, j := range m.active {
		r := &m.jobs[j]
		r.units -= dt * r.Rate
		if r.units < 0 {
			r.units = 0
		}
	}
}

func (m *exactMode) push(j int32, head bool) {
	at := len(m.waiting)
	if head {
		at = 0
	}
	m.waiting = slices.Insert(m.waiting, at, j)
}

func (m *exactMode) queued() int           { return len(m.waiting) }
func (m *exactMode) queuedJob(i int) int32 { return m.waiting[i] }

func (m *exactMode) start(i int) {
	m.active = append(m.active, m.waiting[i])
	m.waiting = slices.Delete(m.waiting, i, i+1)
}

func (m *exactMode) finish() int32 {
	j := m.active[m.done]
	m.active = slices.Delete(m.active, m.done, m.done+1)
	return j
}

func (m *exactMode) evict(j int32) {
	i := slices.Index(m.active, j)
	m.active = slices.Delete(m.active, i, i+1)
}

func (m *exactMode) committed() units.Power {
	var c units.Power
	for _, j := range m.active {
		c += m.jobs[j].Budget
	}
	return c
}

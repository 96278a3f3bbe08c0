package des

import (
	"math"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/units"
)

// exactMode is ModeExact's state: the scheduler's own queue, admitted
// by Scheduler.AdmitWaiting in queue order at every event. Its clock
// runs in relative steps: the loop compares times to events, and
// advance drains every running job's remaining work by the step. The
// goldens pin its float expressions; do not "simplify" their shape.
type exactMode struct {
	lifecycle
	res        cluster.QueueResult
	free       []cluster.Node
	waiting    []cluster.TimedJob
	active     []*cluster.RunningJob
	done       int // index in active of the job nextDone found
	jobIndex   map[string]int32
	nodeIndex  map[string]int32
	firstStart map[string]float64 // of evicted jobs, kept across re-admission
}

func runExact(cfg Config, arrs []jobArrival) (Result, error) {
	s := cfg.Sched
	m := &exactMode{
		lifecycle:  newLifecycle(cfg, arrs),
		res:        cluster.QueueResult{Stats: map[string]cluster.JobStat{}},
		free:       append([]cluster.Node(nil), s.Nodes...),
		waiting:    append([]cluster.TimedJob(nil), cfg.Jobs...),
		jobIndex:   make(map[string]int32, len(cfg.Jobs)+len(arrs)),
		nodeIndex:  make(map[string]int32, len(s.Nodes)),
		firstStart: map[string]float64{},
	}
	m.log = cfg.Log
	// Dense indices for the trace hash: t=0 jobs in order, then each
	// generated job as it arrives.
	for i, j := range cfg.Jobs {
		m.jobIndex[j.ID] = int32(i)
	}
	for i, n := range s.Nodes {
		m.nodeIndex[n.ID] = int32(i)
	}
	out, err := run(&m.lifecycle, m)
	if err != nil {
		return out, err
	}
	m.res.Makespan, m.res.Energy = out.Makespan, out.Energy
	sort.SliceStable(m.res.Events, func(i, j int) bool { return m.res.Events[i].Time < m.res.Events[j].Time })
	out.Queue = &m.res
	return out, nil
}

func (m *exactMode) until(at float64) float64 { return at - m.now }

func (m *exactMode) nextDone() float64 {
	next, di := math.Inf(1), -1
	for i, r := range m.active {
		t := r.Remaining / r.Rate
		if t < next {
			next, di = t, i
		}
	}
	m.done = di
	return next
}

func (m *exactMode) advance(dt float64) {
	m.now += dt
	for _, r := range m.active {
		r.Remaining -= dt * r.Rate
		if r.Remaining < 0 {
			r.Remaining = 0
		}
	}
}

// admit runs an AdmitWaiting pass, restores re-admitted jobs' first
// start, and folds the new "start" events into the trace hash.
func (m *exactMode) admit() error {
	before, started := len(m.res.Events), len(m.active)
	var err error
	m.active, m.waiting, m.free, m.pool, err = m.cfg.Sched.AdmitWaiting(
		&m.res, m.active, m.waiting, m.free, m.pool, m.now, m.cfg.Policy, m.cfg.Discipline)
	if err != nil {
		return err
	}
	// AdmitWaiting only appends: the jobs before started carry their
	// first start already.
	for _, r := range m.active[started:] {
		if first, ok := m.firstStart[r.Job.ID]; ok {
			r.FirstStart = first
		}
	}
	for _, ev := range m.res.Events[before:] {
		m.hash.event(ev.Time, evStart, m.jobIndex[ev.JobID], m.nodeIndex[ev.NodeID])
	}
	return nil
}

// arrive queues generated arrival i, named a%06d.
func (m *exactMode) arrive(i int) {
	id := arrivalID(i)
	m.jobIndex[id] = int32(len(m.cfg.Jobs) + i)
	m.waiting = append(m.waiting, cluster.TimedJob{Job: cluster.Job{ID: id, Workload: m.cfg.Workload}, Units: m.arrs[i].units})
}

func (m *exactMode) finish() stopped {
	r := m.active[m.done]
	m.active = append(m.active[:m.done], m.active[m.done+1:]...)
	m.res.Stats[r.Job.ID] = cluster.JobStat{
		Start: r.FirstStart, End: m.now,
		Budget: r.Budget, Power: r.Power, Rate: r.Rate,
	}
	m.res.Events = append(m.res.Events, cluster.Event{Time: m.now, Kind: "finish", JobID: r.Job.ID, NodeID: r.Node.ID})
	m.free = append(m.free, r.Node)
	d := m.stopped(r)
	if i := int(d.job) - len(m.cfg.Jobs); i >= 0 {
		d.arrival = m.arrs[i].at
	}
	return d
}

func (m *exactMode) evict(idx int, keepNode bool) stopped {
	r := m.active[idx]
	m.active = append(m.active[:idx], m.active[idx+1:]...)
	if keepNode {
		m.free = append(m.free, r.Node)
	}
	j := r.Job
	j.Units = r.Remaining
	m.firstStart[j.ID] = r.FirstStart
	m.waiting = append([]cluster.TimedJob{j}, m.waiting...)
	m.res.Events = append(m.res.Events, cluster.Event{Time: m.now, Kind: "suspend", JobID: j.ID, NodeID: r.Node.ID})
	return m.stopped(r)
}

func (m *exactMode) stopped(r *cluster.RunningJob) stopped {
	return stopped{
		job: m.jobIndex[r.Job.ID], node: m.nodeIndex[r.Node.ID],
		budget: r.Budget, power: r.Power, started: r.Started, firstStart: r.FirstStart,
		id: r.Job.ID, left: r.Remaining,
	}
}

func (m *exactMode) latest() int {
	latest := 0
	for i, r := range m.active {
		if r.Started > m.active[latest].Started {
			latest = i
		}
	}
	return latest
}

func (m *exactMode) nodeUp(n int32) {
	node := m.cfg.Sched.Nodes[n]
	m.free = append(m.free, node)
	m.res.Events = append(m.res.Events, cluster.Event{Time: m.now, Kind: "recover", NodeID: node.ID})
}

func (m *exactMode) nodeDown(n int32) int {
	id := m.cfg.Sched.Nodes[n].ID
	m.res.Events = append(m.res.Events, cluster.Event{Time: m.now, Kind: "fail", NodeID: id})
	if i := slices.IndexFunc(m.free, func(n cluster.Node) bool { return n.ID == id }); i >= 0 {
		m.free = slices.Delete(m.free, i, i+1)
		return -1
	}
	return slices.IndexFunc(m.active, func(r *cluster.RunningJob) bool { return r.Node.ID == id })
}

func (m *exactMode) committed() units.Power {
	var c units.Power
	for _, r := range m.active {
		c += r.Budget
	}
	return c
}

func (m *exactMode) queued() int  { return len(m.waiting) }
func (m *exactMode) running() int { return len(m.active) }

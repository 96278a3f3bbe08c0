package des

import (
	"math"
	"sync/atomic"

	"repro/internal/cluster"
)

// A run is three stages, each on its own goroutine, in order: the
// producer draws the arrival trace into the job store, the event loop
// (lifecycle.run) consumes the store and emits compact event records,
// and the recorder folds those records into the trace hash, the
// streaming statistics and exact mode's per-job result. The event loop
// is the only stage on the run's critical path; the others run on idle
// cores, or in the loop's pauses on a single one.

// The job store holds every job record by dense index in chunks that
// never move or regrow: a chunk, once filed in the directory, stays at
// its address for the whole run.
const (
	jobChunkShift = 10
	jobChunkLen   = 1 << jobChunkShift
)

// Event records travel from the loop to the recorder in chunks, at
// most recChunks of them per run: a loop that has filled them all
// waits for the recorder to return one. The first chunk is short, so
// a short run allocates no more than it needs.
const (
	recChunkLen   = 4096
	recFirstChunk = 256
	recChunks     = 4
)

// maxResultPresize caps the jobs exact mode's per-job result is
// presized for.
const maxResultPresize = 1 << 16

// publishEvery is how many arrivals the producer draws between two
// publications: small enough that the loop starts at once, large
// enough that publishing costs nothing next to drawing.
const publishEvery = 256

type jobChunk [jobChunkLen]jobRec

// feed is what the producer shares with the other stages. A record is
// written before the count that covers it is published, and the count
// is loaded before the record is read, so the atomics order every
// access to the store. The loop alone waits on the feed.
type feed struct {
	// dir is the chunk directory, nil past the chunks drawn. The
	// producer files a new chunk into a free slot, or into a copy twice
	// the length that replaces dir.
	dir  atomic.Pointer[[]*jobChunk]
	n    atomic.Int64  // records published
	sum  atomic.Uint64 // float64 bits of the published records' Σunits, in index order
	done atomic.Bool   // set after the last publication: n and sum are final
	stop atomic.Bool   // the run ended early: stop drawing
	wake chan struct{} // one buffered token per publication
	// exited is closed when the producer returns.
	exited chan struct{}
}

// jobWriter is the write side of the store, owned by one goroutine at
// a time: Run's while it files the t=0 jobs, then the producer's.
type jobWriter struct {
	f   *feed
	dir []*jobChunk
	n   int
	sum float64
}

// newFeed starts a store sized for about expect records.
func newFeed(expect int) (*feed, *jobWriter) {
	f := &feed{wake: make(chan struct{}, 1), exited: make(chan struct{})}
	dir := make([]*jobChunk, expect>>jobChunkShift+1)
	f.dir.Store(&dir)
	return f, &jobWriter{f: f, dir: dir}
}

// add files the next record: a job arriving at at with units of work.
func (w *jobWriter) add(at, units float64) {
	k := w.n >> jobChunkShift
	if k == len(w.dir) {
		dir := make([]*jobChunk, 2*k)
		copy(dir, w.dir)
		w.dir = dir
		w.f.dir.Store(&dir)
	}
	c := w.dir[k]
	if c == nil {
		c = new(jobChunk)
		w.dir[k] = c
	}
	r := &c[w.n&(jobChunkLen-1)] // zeroed by new
	r.at, r.units, r.firstStart = at, units, -1
	w.n++
	w.sum += units
}

// publish makes the records filed so far visible; done marks them the
// whole trace.
func (w *jobWriter) publish(done bool) {
	w.f.sum.Store(math.Float64bits(w.sum))
	w.f.n.Store(int64(w.n))
	if done {
		w.f.done.Store(true)
	}
	select {
	case w.f.wake <- struct{}{}:
	default:
	}
}

// produce is the producer stage: it draws the arrival trace into the
// store, publishing every publishEvery jobs, and stops early once the
// run has.
func (w *jobWriter) produce(d arrivalDraws) {
	defer close(w.f.exited)
	for k := 1; ; k++ {
		a, ok := d.next()
		if !ok {
			break
		}
		w.add(a.at, a.units)
		if k%publishEvery == 0 {
			if w.f.stop.Load() {
				return
			}
			w.publish(false)
		}
	}
	w.publish(true)
}

// jobView is one stage's view of the store: the directory and count it
// last loaded, and whether they were final.
type jobView struct {
	f     *feed
	dir   []*jobChunk
	n     int
	final bool
}

// load takes the latest publication and reports whether it is final.
func (v *jobView) load() bool {
	v.final = v.f.done.Load()
	v.n = int(v.f.n.Load())
	v.dir = *v.f.dir.Load()
	return v.final
}

// rec is record j, which the view must already cover.
func (v *jobView) rec(j int32) *jobRec {
	return &v.dir[j>>jobChunkShift][j&(jobChunkLen-1)]
}

// has reports whether record i exists, waiting for the producer when
// the view does not cover it yet.
func (v *jobView) has(i int) bool {
	return i < v.n || v.await(i)
}

func (v *jobView) await(i int) bool {
	for !v.final {
		v.load()
		if i < v.n {
			return true
		}
		if !v.final {
			<-v.f.wake
		}
	}
	return false
}

// count waits for the whole trace and returns its length.
func (v *jobView) count() int {
	v.await(math.MaxInt)
	return v.n
}

// faultHorizon bounds the makespan for the fault schedules: total work
// at a conservative 1e9 units/s, padded 4x, floored at one hour.
func faultHorizon(units float64) float64 {
	h := 4 * units / 1e9
	if h < 3600 {
		h = 3600
	}
	return h
}

// within is the fault schedules' horizon test (a faults.Horizon) for
// the loop: t is inside faultHorizon of the whole trace's work, summed
// t=0 jobs first, then arrivals in order. A prefix's sum only grows, so
// once the published prefix already puts the horizon past t the answer
// is final; otherwise the test waits for more of the trace, and says no
// only against the final sum. Every answer is the one the whole trace
// gives.
func (f *feed) within(t float64) bool {
	for {
		done := f.done.Load()
		if !(t >= faultHorizon(math.Float64frombits(f.sum.Load()))) {
			return true
		}
		if done {
			return false
		}
		<-f.wake
	}
}

// pipeline connects a run's stages. Run starts it and closes it on
// every return, so no stage outlives the run.
type pipeline struct {
	feed *feed
	rec  *recorder
	// full carries filled record chunks to the recorder, free returns
	// them; each holds every chunk there can be, so neither send blocks.
	// made counts the chunks made.
	full, free chan []evRec
	made       int
	closed     bool
}

// startPipeline files cfg's t=0 jobs in a new job store, then starts
// the producer on the arrival trace and the recorder.
func startPipeline(cfg *Config) *pipeline {
	d := newArrivalDraws(cfg.Arrivals, cfg.Seed, cfg.Horizon, cfg.MaxJobs)
	f, w := newFeed(len(cfg.Jobs) + d.expect())
	for _, j := range cfg.Jobs {
		w.add(0, j.Units)
	}
	w.publish(false)
	p := &pipeline{
		feed: f,
		rec:  &recorder{cfg: cfg, jobs: jobView{f: f}, hash: newTraceHash(), exited: make(chan struct{})},
		full: make(chan []evRec, recChunks),
		free: make(chan []evRec, recChunks),
	}
	if cfg.Mode == ModeExact {
		// Presized for the t=0 jobs and the expected arrivals, a start and
		// a finish each, but for no more jobs than the run has events (an
		// arrival or a first finish is one) or maxResultPresize: a hostile
		// arrival spec allocates nothing up front that its run may never
		// fill, and a result that outgrows its presize grows as it fills.
		n := min(len(cfg.Jobs)+d.expect(), cfg.MaxEvents, maxResultPresize)
		p.rec.res = &cluster.QueueResult{Stats: make(map[string]cluster.JobStat, n), Events: make([]cluster.Event, 0, 2*n)}
		p.rec.ids = make([]string, len(cfg.Jobs), max(n, len(cfg.Jobs)))
		for i, j := range cfg.Jobs {
			p.rec.ids[i] = j.ID
		}
	}
	go w.produce(d)
	go p.rec.record(p.full, p.free)
	return p
}

// chunk makes an empty record chunk of capacity n.
func (p *pipeline) chunk(n int) []evRec {
	p.made++
	return make([]evRec, 0, n)
}

// arrivals waits for the whole trace and counts its generated jobs.
func (p *pipeline) arrivals() int {
	v := jobView{f: p.feed}
	return v.count() - len(p.rec.cfg.Jobs)
}

// finish hands the recorder the last records and returns it once it
// has folded every one.
func (p *pipeline) finish(last []evRec) *recorder {
	if len(last) > 0 {
		p.full <- last
	}
	p.close()
	return p.rec
}

// close ends the run's stages: the recorder folds what it was sent and
// returns, the producer stops at its next publication. It returns once
// both have, and is safe to call again.
func (p *pipeline) close() {
	if !p.closed {
		p.closed = true
		close(p.full)
		p.feed.stop.Store(true)
	}
	<-p.feed.exited
	<-p.rec.exited
}

// evRec is one event as the loop emits it: the time, the kind byte
// and the dense job and node indices (-1 for none).
type evRec struct {
	at        float64
	job, node int32
	kind      byte
}

// recorder is the last stage: it folds the event records, in order,
// into the trace hash, the completion statistics and, in exact mode,
// the per-job result. A finished job's record is read from the store:
// the loop never writes it again.
type recorder struct {
	cfg   *Config
	jobs  jobView
	hash  traceHash
	stats agg
	// ModeExact only: the per-job result and the job IDs named so far.
	res *cluster.QueueResult
	ids []string
	// exited is closed when the recorder returns.
	exited chan struct{}
}

// record runs the recorder over the chunks sent on full until it is
// closed, returning each chunk on free.
func (r *recorder) record(full <-chan []evRec, free chan<- []evRec) {
	defer close(r.exited)
	for b := range full {
		h := r.hash.h
		for i := range b {
			e := &b[i]
			h = hashEvent(h, e.at, e.kind, e.job, e.node)
			if e.kind == evFinish || r.res != nil {
				r.fold(e)
			}
		}
		r.hash.h = h
		free <- b
	}
}

// fold folds event e into the statistics and the per-job result.
func (r *recorder) fold(e *evRec) {
	if e.kind == evFinish {
		if int(e.job) >= r.jobs.n {
			r.jobs.load()
		}
		j := r.jobs.rec(e.job)
		r.stats.finish(j.at, j.firstStart, e.at)
		if r.res != nil {
			r.res.Stats[r.id(e.job)] = cluster.JobStat{Start: j.firstStart, End: e.at, Budget: j.Budget, Power: j.Power, Rate: j.Rate}
		}
	}
	if r.res == nil || resultKinds[e.kind] == "" {
		return
	}
	ev := cluster.Event{Time: e.at, Kind: resultKinds[e.kind]}
	if e.job >= 0 {
		ev.JobID = r.id(e.job)
	}
	if e.node >= 0 {
		ev.NodeID = r.cfg.Sched.Nodes[e.node].ID
	}
	r.res.Events = append(r.res.Events, ev)
}

// id names job j, naming arrivals as they first appear.
func (r *recorder) id(j int32) string {
	for int(j) >= len(r.ids) {
		r.ids = append(r.ids, jobID(r.cfg, int32(len(r.ids))))
	}
	return r.ids[j]
}

// jobID names job j: a t=0 job's own ID, or the generated arrival's.
func jobID(cfg *Config, j int32) string {
	if int(j) < len(cfg.Jobs) {
		return cfg.Jobs[j].ID
	}
	return arrivalID(int(j) - len(cfg.Jobs))
}

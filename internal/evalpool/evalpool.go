// Package evalpool is the evaluation engine behind every sweep, curve,
// strategy comparison, and cluster-planning pass: all of them bottom out
// in pure, deterministic simulator calls over an allocation space, which
// makes the work embarrassingly parallel and perfectly cacheable.
//
// The engine has two layers:
//
//  1. a bounded worker pool (EvaluateAll) that fans simulator calls
//     across up to GOMAXPROCS goroutines with index-addressed result
//     slots, so the output order — and therefore every downstream table,
//     chart, and figure — is byte-identical to the serial path;
//  2. a sharded, keyed memo cache mapping (platform, workload, call
//     kind, caps/clocks) to the simulated result, with hit/miss/eviction
//     counters and a size bound, shared across a whole experiment run so
//     different artifacts stop re-simulating identical points.
//
// Both layers rely on the simulator being a pure function of its
// arguments. That holds for every entry point the engine dispatches
// (sim.RunCPU, sim.RunGPU, sim.RunGPUMemPower, sim.RunGPUOffsets) but
// NOT for fault-injection runs: the faults package perturbs caps and
// readings per call, so fault-mode execution must stay off the engine
// entirely (and does — internal/faults drives sim directly).
package evalpool

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Op selects which simulator entry point a Request drives.
type Op uint8

// Supported simulator entry points.
const (
	// OpCPU is sim.RunCPU: Proc is the package cap, Mem the DRAM cap.
	OpCPU Op = iota + 1
	// OpGPUClock is sim.RunGPU: Proc is the board cap, Clock the memory
	// clock.
	OpGPUClock
	// OpGPUMemPower is sim.RunGPUMemPower: Proc is the board cap, Mem
	// the memory power budget steering the clock choice.
	OpGPUMemPower
	// OpGPUOffsets is sim.RunGPUOffsets: Proc is the board cap,
	// SMOffset and MemOffset the nvidia-settings clock offsets.
	OpGPUOffsets
)

// Request is one point of the allocation space to evaluate.
type Request struct {
	Op        Op
	Proc, Mem units.Power
	Clock     units.Frequency
	SMOffset  units.Frequency
	MemOffset units.Frequency
}

// Problem names the fixed half of an evaluation: the machine and the
// workload. The engine fingerprints both by content, so two problems
// with equal names but different parameters (e.g. a calibrated workload
// variant) never share cache entries.
type Problem struct {
	Platform hw.Platform
	Workload workload.Workload
}

// fingerprint hashes the problem content: every platform scalar, the
// dereferenced CPU, DRAM and GPU specs (a nil spec hashes as a marker
// distinct from any present one), and every workload and phase field.
// Each field's bits go straight into FNV-1a, so two independently built
// problems with equal content share one key space, and any parameter
// change yields a new one. Strings are length-prefixed so adjacent
// fields cannot trade bytes.
func (pr *Problem) fingerprint() uint64 {
	h := newHasher()
	p := &pr.Platform
	h.str(p.Name)
	h.str(p.Paper)
	h.int(int64(p.Kind))
	if c := p.CPU; h.present(c != nil) {
		h.str(c.Name)
		h.int(int64(c.Sockets))
		h.int(int64(c.CoresPerSocket))
		h.f64(c.FMin.Hz())
		h.f64(c.FNom.Hz())
		h.f64(c.PStateStep.Hz())
		h.f64(c.VMin)
		h.f64(c.VNom)
		h.f64(c.OpsPerCyclePerCore)
		h.f64(c.IdlePower.Watts())
		h.f64(c.UncorePower.Watts())
		h.f64(c.MaxDynPower.Watts())
		h.int(int64(c.TStateSteps))
		h.f64(c.MinDuty)
	}
	if d := p.DRAM; h.present(d != nil) {
		h.str(d.Name)
		h.int(int64(d.TotalGB))
		h.int(int64(d.Channels))
		h.f64(d.TransferRate.Hz())
		h.f64(d.BytesPerTransfer)
		h.f64(d.BackgroundPower.Watts())
		h.f64(d.EnergyPerByteStream)
		h.f64(d.EnergyPerByteRandom)
		h.f64(d.MinThrottleHeadroom.Watts())
	}
	if g := p.GPU; h.present(g != nil) {
		h.str(g.Name)
		h.int(int64(g.SMs))
		h.int(int64(g.LanesPerSM))
		h.f64(g.OpsPerCyclePerLane)
		h.f64(g.SMClockMin.Hz())
		h.f64(g.SMClockNom.Hz())
		h.f64(g.SMClockStep.Hz())
		h.f64(g.VMin)
		h.f64(g.VNom)
		h.f64(g.IdleBoard.Watts())
		h.f64(g.SMIdlePower.Watts())
		h.f64(g.SMMaxDynPower.Watts())
		m := &g.Mem
		h.str(m.Name)
		h.f64(m.ClockMin.Hz())
		h.f64(m.ClockNom.Hz())
		h.f64(m.ClockMax.Hz())
		h.f64(m.ClockStep.Hz())
		h.f64(m.BytesPerClock)
		h.f64(m.PowerMin.Watts())
		h.f64(m.PowerMax.Watts())
		h.f64(g.TDP.Watts())
		h.f64(g.MinCap.Watts())
		h.f64(g.MaxCap.Watts())
	}
	w := &pr.Workload
	h.str(w.Name)
	h.str(w.Suite)
	h.str(w.Desc)
	h.int(int64(w.Kind))
	h.str(w.PerfUnit)
	h.f64(w.PerfPerUnitRate)
	h.int(int64(len(w.Phases)))
	for i := range w.Phases {
		ph := &w.Phases[i]
		h.str(ph.Name)
		h.f64(ph.Weight)
		h.f64(ph.OpsPerUnit)
		h.f64(ph.BytesPerUnit)
		h.f64(ph.RandomFrac)
		h.f64(ph.BandwidthEff)
		h.f64(ph.ComputeEff)
		h.f64(ph.Overlap)
		h.f64(ph.ActivityBase)
		h.f64(ph.StallActivity)
	}
	return uint64(h)
}

// hasher is an allocation-free FNV-1a 64 state fed whole fields.
type hasher uint64

// fnvOffset is the FNV-1a 64-bit offset basis.
const fnvOffset = 14695981039346656037

func newHasher() hasher { return fnvOffset }

// u64 feeds the eight bytes of v, least significant first.
func (h *hasher) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x = (x ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	*h = hasher(x)
}

func (h *hasher) int(v int64)   { h.u64(uint64(v)) }
func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }

// str feeds the length, then the bytes, of s.
func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * fnvPrime
	}
	*h = hasher(x)
}

// present feeds a nil marker for an optional spec and reports ok, so a
// call site can hash the spec's fields only when it exists.
func (h *hasher) present(ok bool) bool {
	if ok {
		h.u64(1)
	} else {
		h.u64(0)
	}
	return ok
}

// Options configures an Engine.
type Options struct {
	// Workers bounds the evaluation goroutines; 0 or negative means
	// GOMAXPROCS.
	Workers int
	// CacheSize bounds the memo cache in entries. 0 means
	// DefaultCacheSize; negative disables caching entirely.
	CacheSize int
}

// DefaultCacheSize is the memo cache bound when Options.CacheSize is 0.
// At roughly one small struct per allocation point, 64k entries cover
// every figure of the paper many times over.
const DefaultCacheSize = 1 << 16

// Engine evaluates allocation-space points in parallel with memoization.
// The zero value is not usable; construct with New.
type Engine struct {
	workers  int
	cache    *cache
	requests atomic.Uint64 // points asked for
	simRuns  atomic.Uint64 // simulator calls actually executed
}

// New returns an engine with the given options.
func New(o Options) *Engine {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: w}
	if o.CacheSize >= 0 {
		size := o.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		e.cache = newCache(size)
	}
	return e
}

// Serial returns the reference engine: one worker, no cache. Its output
// defines correctness for every other configuration.
func Serial() *Engine { return New(Options{Workers: 1, CacheSize: -1}) }

// Workers returns the engine's worker bound.
func (e *Engine) Workers() int { return e.workers }

var (
	defaultMu     sync.Mutex
	defaultEngine *Engine
)

// Default returns the process-wide shared engine, creating it with
// default options on first use. Sharing one engine across an experiment
// run is what lets independent artifacts reuse each other's points.
func Default() *Engine {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultEngine == nil {
		defaultEngine = New(Options{})
	}
	return defaultEngine
}

// Configure replaces the shared engine with a fresh one built from the
// options (the -workers / -cache-size command line knobs) and returns it.
func Configure(o Options) *Engine {
	e := New(o)
	SetDefault(e)
	return e
}

// SetDefault installs e as the shared engine and returns the previous
// one (which may be nil). Tests use it to pin a serial reference engine
// and restore the prior state.
func SetDefault(e *Engine) *Engine {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	prev := defaultEngine
	defaultEngine = e
	return prev
}

// Bound is a problem bound to an engine with its fingerprint computed
// once, for call sites that evaluate many points of the same problem
// one at a time (profiling binary searches, scheduler planning).
type Bound struct {
	e  *Engine
	pr Problem
	fp uint64
}

// Bind fingerprints the problem once and returns the bound handle.
func (e *Engine) Bind(pr Problem) *Bound {
	return &Bound{e: e, pr: pr, fp: pr.fingerprint()}
}

// Evaluate evaluates one point of the bound problem.
func (b *Bound) Evaluate(req Request) (sim.Result, error) {
	return b.e.evaluate(&b.pr, b.fp, req)
}

// Evaluate evaluates a single point, consulting the cache.
func (e *Engine) Evaluate(pr Problem, req Request) (sim.Result, error) {
	return e.evaluate(&pr, pr.fingerprint(), req)
}

// EvaluateAll evaluates every request and returns results in request
// order. Work is spread over the engine's workers; result slot i always
// holds the outcome of reqs[i], so the output is independent of
// scheduling. On error the first failure in request order is returned.
func (e *Engine) EvaluateAll(ctx context.Context, pr Problem, reqs []Request) ([]sim.Result, error) {
	out := make([]sim.Result, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	fp := pr.fingerprint()
	workers := e.workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers <= 1 {
		for i := range reqs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res, err := e.evaluate(&pr, fp, reqs[i])
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}

	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = e.evaluate(&pr, fp, reqs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evaluate resolves one point through the cache or the simulator.
func (e *Engine) evaluate(pr *Problem, fp uint64, req Request) (sim.Result, error) {
	e.requests.Add(1)
	k := req.key(fp)
	if e.cache != nil {
		if res, ok := e.cache.get(k); ok {
			return res, nil
		}
	}
	res, err := e.run(pr, req)
	if err != nil {
		return sim.Result{}, err
	}
	if e.cache != nil {
		e.cache.put(k, res)
	}
	return res, nil
}

// run dispatches to the simulator entry point the request names.
func (e *Engine) run(pr *Problem, req Request) (sim.Result, error) {
	e.simRuns.Add(1)
	w := pr.Workload
	switch req.Op {
	case OpCPU:
		return sim.RunCPU(pr.Platform, &w, req.Proc, req.Mem)
	case OpGPUClock:
		return sim.RunGPU(pr.Platform, &w, req.Proc, req.Clock)
	case OpGPUMemPower:
		return sim.RunGPUMemPower(pr.Platform, &w, req.Proc, req.Mem)
	case OpGPUOffsets:
		return sim.RunGPUOffsets(pr.Platform, &w, req.Proc, req.SMOffset, req.MemOffset)
	default:
		return sim.Result{}, fmt.Errorf("evalpool: unknown op %d", req.Op)
	}
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Workers is the engine's worker bound.
	Workers int
	// Requests counts evaluation requests; SimRuns counts the simulator
	// calls actually executed (Requests - SimRuns were served memoized,
	// up to concurrent duplicate computation of a not-yet-cached key).
	Requests, SimRuns uint64
	// Hits, Misses, and Evictions are memo cache counters; Entries and
	// Capacity describe its current occupancy. All four are zero when
	// caching is disabled.
	Hits, Misses, Evictions uint64
	Entries, Capacity       int
}

// HitRate returns hits over lookups, or 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String renders a one-line summary, e.g.
// "workers=8 requests=1520 sim-runs=420 cache-hits=1100 (72.4%) entries=420/65536 evictions=0".
func (s Stats) String() string {
	return fmt.Sprintf(
		"workers=%d requests=%d sim-runs=%d cache-hits=%d (%.1f%%) entries=%d/%d evictions=%d",
		s.Workers, s.Requests, s.SimRuns, s.Hits, 100*s.HitRate(),
		s.Entries, s.Capacity, s.Evictions)
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:  e.workers,
		Requests: e.requests.Load(),
		SimRuns:  e.simRuns.Load(),
	}
	if e.cache != nil {
		s.Hits = e.cache.hits.Load()
		s.Misses = e.cache.misses.Load()
		s.Evictions = e.cache.evictions.Load()
		s.Entries = e.cache.len()
		s.Capacity = e.cache.capacity()
	}
	return s
}

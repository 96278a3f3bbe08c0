// Package evalpool is the evaluation engine behind every sweep, curve,
// strategy comparison, and cluster-planning pass: all of them bottom out
// in pure, deterministic simulator calls over an allocation space, which
// makes the work embarrassingly parallel and perfectly cacheable.
//
// The engine has two layers:
//
//  1. a bounded worker pool (EvaluateAll, Each) that fans simulator
//     calls across up to GOMAXPROCS goroutines with index-addressed
//     result slots, so the output order — and therefore every
//     downstream table, chart, and figure — is byte-identical to the
//     serial path; a single point (Evaluate) is a plain simulator call;
//  2. one memo (Derive, DeriveWeighted) of whole results derived from
//     a problem — profiles, powertree leaf curves, cluster placements,
//     recoord's operating-point slates — keyed by the problem's content
//     fingerprint, with hit/miss/eviction counters and a bound in
//     simulated points, shared across a whole experiment run so
//     different artifacts stop re-deriving identical results.
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
// workload. The memo fingerprints both by content, so two problems
// with equal names but different parameters (e.g. a calibrated workload
// variant) never share memo entries.
type Problem struct {
	Platform hw.Platform
	Workload workload.Workload
}

// fingerprint hashes the problem content: every platform scalar, the
// dereferenced CPU, DRAM and GPU specs (a nil spec hashes as a marker
// distinct from any present one), and every workload and phase field.
// Each field goes into the hash as one 64-bit word, so two
// independently built problems with equal content share one key space,
// and any parameter change yields a new one. Strings are
// length-prefixed so adjacent fields cannot trade bytes.
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
	return h.sum()
}

// hasher is an allocation-free 64-bit hash state fed one word per
// field. Each step, x → ((x ⊕ v)·m) ⊕ ((x ⊕ v)·m >> 32) with m odd, is
// a bijection of the state for a fixed word and of the word for a
// fixed state, so two inputs that differ in a single field never
// collide, however many fields follow.
type hasher uint64

// Hash constants: the seed is the FNV-1a offset basis, the step
// multiplier the (odd) 64-bit golden-ratio constant, and the finalizer
// multipliers are MurmurHash3's fmix64.
const (
	hashSeed = 14695981039346656037
	hashMul  = 0x9e3779b97f4a7c15
	fmixMul1 = 0xff51afd7ed558ccd
	fmixMul2 = 0xc4ceb9fe1a85ec53
)

func newHasher() hasher { return hashSeed }

// u64 feeds one word.
func (h *hasher) u64(v uint64) {
	x := (uint64(*h) ^ v) * hashMul
	*h = hasher(x ^ x>>32)
}

func (h *hasher) int(v int64)   { h.u64(uint64(v)) }
func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }

// str feeds the length of s, then its bytes eight to a word
// (little-endian, the last word zero-padded).
func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	for len(s) > 0 {
		var w uint64
		n := min(len(s), 8)
		for i := 0; i < n; i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h.u64(w)
		s = s[n:]
	}
}

// sum returns the state after MurmurHash3's fmix64 avalanche, so every
// input bit reaches every output bit.
func (h hasher) sum() uint64 {
	x := uint64(h)
	x ^= x >> 33
	x *= fmixMul1
	x ^= x >> 33
	x *= fmixMul2
	x ^= x >> 33
	return x
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
	// CacheSize bounds the memo in points of weight (see
	// DeriveWeighted). 0 means DefaultCacheSize; negative disables
	// memoization entirely.
	CacheSize int
}

// DefaultCacheSize is the memo bound when Options.CacheSize is 0: 64k
// points hold every pair's profile, curve and placements many times
// over.
const DefaultCacheSize = 1 << 16

// Engine evaluates allocation-space points in parallel and memoizes
// results derived from whole problems. The zero value is not usable;
// construct with New.
type Engine struct {
	workers int
	memo    *memo         // nil when memoization is disabled
	simRuns atomic.Uint64 // simulator calls executed
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
		e.memo = newMemo(size)
	}
	return e
}

// Serial returns the reference engine: one worker, no memo. Its output
// defines correctness for every other configuration.
func Serial() *Engine { return New(Options{Workers: 1, CacheSize: -1}) }

// Workers returns the engine's worker bound.
func (e *Engine) Workers() int { return e.workers }

// defaultEngine is the shared engine: read with one atomic load, and
// replaced under defaultMu, which also serializes its lazy creation.
var (
	defaultMu     sync.Mutex
	defaultEngine atomic.Pointer[Engine]
)

// Default returns the process-wide shared engine, creating it with
// default options on first use. Sharing one engine across an experiment
// run is what lets independent artifacts reuse each other's profiles,
// curves and placements. Every call but the first is one atomic load.
func Default() *Engine {
	if e := defaultEngine.Load(); e != nil {
		return e
	}
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if e := defaultEngine.Load(); e != nil {
		return e
	}
	e := New(Options{})
	defaultEngine.Store(e)
	return e
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
	return defaultEngine.Swap(e)
}

// Bound is a problem bound to an engine with its fingerprint computed
// once, the handle Derive and DeriveWeighted memoize under; its
// Evaluate serves the derivation's simulator calls, and any other
// caller's that evaluates one problem at many points.
type Bound struct {
	e  *Engine
	pr Problem
	fp uint64
	// model is the problem's bound simulator (sim.Bind), set by
	// WithModel and nil otherwise. It lives exactly as long as the
	// Bound.
	model *sim.Model
}

// Bind fingerprints the problem once and returns the bound handle.
func (e *Engine) Bind(pr Problem) *Bound {
	return &Bound{e: e, pr: pr, fp: pr.fingerprint()}
}

// WithModel returns a copy of b that evaluates through a bound
// simulator (sim.Bind), whose tables serve every later point of the
// problem: for a caller that revisits the problem's actuator states
// over many points (a decision-table build, a CPU profile's search),
// not for one that evaluates a point or two. Results are Evaluate's
// bit for bit. A problem that does not bind gets a copy without a
// model, whose Evaluate reports the unbound entry points' errors.
func (b *Bound) WithModel() *Bound {
	c := *b
	c.model, _ = sim.Bind(b.pr.Platform, &b.pr.Workload, sim.Options{})
	return &c
}

// Evaluate simulates one point of the bound problem: the result is
// Engine.Evaluate's bit for bit.
func (b *Bound) Evaluate(req Request) (sim.Result, error) {
	return b.e.run(&b.pr, b.model, req)
}

// Evaluate simulates a single point: a one-shot call that binds
// nothing. A caller evaluating one problem at many points binds it
// (Engine.Bind) and evaluates through the Bound, which copies nothing
// per point.
func (e *Engine) Evaluate(pr Problem, req Request) (sim.Result, error) {
	return e.run(&pr, nil, req)
}

// EvaluateAll evaluates every request and returns results in request
// order. Work is spread over the engine's workers; result slot i always
// holds the outcome of reqs[i], so the output is independent of
// scheduling. On error the first failure in request order is returned.
func (e *Engine) EvaluateAll(ctx context.Context, pr Problem, reqs []Request) ([]sim.Result, error) {
	out := make([]sim.Result, len(reqs))
	errs := make([]error, len(reqs))
	e.Each(len(reqs), func(i int) {
		if errs[i] = ctx.Err(); errs[i] == nil {
			out[i], errs[i] = e.run(&pr, nil, reqs[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Each calls fn(i) for every i in [0, n) on up to the engine's workers
// and returns once every call has. Workers claim indices from an atomic
// counter, so fn writing only its own index-addressed slot produces
// output independent of scheduling.
func (e *Engine) Each(n int, fn func(i int)) {
	workers := min(e.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// run dispatches to the simulator entry point the request names, on
// model m when it is not nil. It passes the problem's own workload:
// the simulator never writes through its workload pointer (phases it
// adjusts are copied first), so no per-call copy is needed.
func (e *Engine) run(pr *Problem, m *sim.Model, req Request) (sim.Result, error) {
	e.simRuns.Add(1)
	w := &pr.Workload
	switch req.Op {
	case OpCPU:
		if m != nil {
			return m.RunCPU(req.Proc, req.Mem)
		}
		return sim.RunCPU(pr.Platform, w, req.Proc, req.Mem)
	case OpGPUClock:
		if m != nil {
			return m.RunGPU(req.Proc, req.Clock)
		}
		return sim.RunGPU(pr.Platform, w, req.Proc, req.Clock)
	case OpGPUMemPower:
		if m != nil {
			return m.RunGPUMemPower(req.Proc, req.Mem)
		}
		return sim.RunGPUMemPower(pr.Platform, w, req.Proc, req.Mem)
	case OpGPUOffsets:
		if m != nil {
			return m.RunGPUOffsets(req.Proc, req.SMOffset, req.MemOffset)
		}
		return sim.RunGPUOffsets(pr.Platform, w, req.Proc, req.SMOffset, req.MemOffset)
	default:
		return sim.Result{}, fmt.Errorf("evalpool: unknown op %d", req.Op)
	}
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Workers is the engine's worker bound.
	Workers int
	// Requests counts the points evaluated and SimRuns the simulator
	// calls executed. Every point is a simulator call, so the two are
	// equal; points a memoized derivation already holds are neither.
	Requests, SimRuns uint64
	// Hits, Misses and Evictions count memo lookups and evicted
	// entries; Entries is the memo's weight in points and Capacity its
	// bound (see DeriveWeighted). All five are zero when memoization
	// is disabled.
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
// "workers=8 requests=420 sim-runs=420 memo-hits=1100 (72.4%) memo-points=420/65536 evictions=0".
func (s Stats) String() string {
	return fmt.Sprintf(
		"workers=%d requests=%d sim-runs=%d memo-hits=%d (%.1f%%) memo-points=%d/%d evictions=%d",
		s.Workers, s.Requests, s.SimRuns, s.Hits, 100*s.HitRate(),
		s.Entries, s.Capacity, s.Evictions)
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	runs := e.simRuns.Load()
	s := Stats{Workers: e.workers, Requests: runs, SimRuns: runs}
	if m := e.memo; m != nil {
		s.Hits = m.hits.Load()
		s.Misses = m.misses.Load()
		s.Evictions = m.evictions.Load()
		s.Entries = m.load()
		s.Capacity = m.max
	}
	return s
}

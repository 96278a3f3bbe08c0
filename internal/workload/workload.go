// Package workload defines analytic models of the benchmarks the paper
// studies (Table 3): eleven CPU benchmarks from HPCC, NPB, and UVA STREAM,
// and six GPU benchmarks from the CUDA examples and the ECP proxy apps.
//
// A workload is a sequence of phases; each phase is characterized by its
// compute operations and memory traffic per unit of work, its access
// pattern, how well compute and memory access overlap, and how much
// switching activity the processor sustains while running versus while
// stalled on memory. Only these characteristics matter for the
// power/performance dynamics the paper studies, so the models substitute
// for the real codes (see DESIGN.md).
package workload

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/hw"
)

// Phase describes one execution phase of a workload. Work is measured in
// abstract units (a byte moved for STREAM, a FLOP for DGEMM, an update for
// RandomAccess); performance is reported as units completed per second.
type Phase struct {
	// Name identifies the phase, e.g. "x-solve".
	Name string
	// Weight is the fraction of the workload's total work units executed
	// in this phase. Weights across a workload's phases sum to 1.
	Weight float64
	// OpsPerUnit is the number of processor operations per work unit.
	OpsPerUnit float64
	// BytesPerUnit is the DRAM traffic per work unit in bytes.
	BytesPerUnit float64
	// RandomFrac is the fraction of memory traffic that is random access
	// (row-activation heavy) rather than streaming.
	RandomFrac float64
	// BandwidthEff is the fraction of peak memory bandwidth the phase's
	// access pattern can reach even with unlimited power (random access
	// patterns are latency limited far below peak).
	BandwidthEff float64
	// ComputeEff is the fraction of peak compute throughput the phase can
	// reach (vectorization, ILP, instruction mix).
	ComputeEff float64
	// Overlap is the p-norm exponent combining compute time and memory
	// time: T = (Tc^p + Tm^p)^(1/p). p=1 models fully serialized compute
	// and memory access; large p models perfect overlap (T = max).
	Overlap float64
	// ActivityBase is the processor switching-activity factor while the
	// phase executes unstalled.
	ActivityBase float64
	// StallActivity is the (lower) activity factor while stalled on
	// memory.
	StallActivity float64
}

// Validate reports a descriptive error for out-of-range parameters.
func (p *Phase) Validate() error {
	switch {
	case p.Weight <= 0 || p.Weight > 1:
		return fmt.Errorf("phase %q: weight %v out of (0,1]", p.Name, p.Weight)
	case p.OpsPerUnit < 0 || p.BytesPerUnit < 0:
		return fmt.Errorf("phase %q: negative work parameters", p.Name)
	case p.OpsPerUnit == 0 && p.BytesPerUnit == 0:
		return fmt.Errorf("phase %q: no work at all", p.Name)
	case p.RandomFrac < 0 || p.RandomFrac > 1:
		return fmt.Errorf("phase %q: random fraction %v out of [0,1]", p.Name, p.RandomFrac)
	case p.BandwidthEff <= 0 || p.BandwidthEff > 1:
		return fmt.Errorf("phase %q: bandwidth efficiency %v out of (0,1]", p.Name, p.BandwidthEff)
	case p.ComputeEff <= 0 || p.ComputeEff > 1:
		return fmt.Errorf("phase %q: compute efficiency %v out of (0,1]", p.Name, p.ComputeEff)
	case p.Overlap < 1:
		return fmt.Errorf("phase %q: overlap exponent %v below 1", p.Name, p.Overlap)
	case p.ActivityBase <= 0 || p.ActivityBase > 1:
		return fmt.Errorf("phase %q: base activity %v out of (0,1]", p.Name, p.ActivityBase)
	case p.StallActivity <= 0 || p.StallActivity > p.ActivityBase:
		return fmt.Errorf("phase %q: stall activity %v out of (0, base]", p.Name, p.StallActivity)
	}
	return nil
}

// Activity returns the effective processor activity factor when the phase
// spends fraction stallFrac of its time stalled on memory.
func (p *Phase) Activity(stallFrac float64) float64 {
	if stallFrac < 0 {
		stallFrac = 0
	}
	if stallFrac > 1 {
		stallFrac = 1
	}
	return p.ActivityBase*(1-stallFrac) + p.StallActivity*stallFrac
}

// ComputeIntensity returns ops per byte for the phase; +Inf-free: phases
// with zero traffic return a large sentinel.
func (p *Phase) ComputeIntensity() float64 {
	if p.BytesPerUnit == 0 {
		return 1e9
	}
	return p.OpsPerUnit / p.BytesPerUnit
}

// Workload is a named benchmark composed of one or more phases.
type Workload struct {
	// Name is the short identifier, e.g. "sra" or "dgemm".
	Name string
	// Suite is the benchmark's origin: "HPCC", "NPB", "UVA", "CUDA",
	// "ECP", or "HPL".
	Suite string
	// Desc is the Table 3 description.
	Desc string
	// Kind says whether this is a CPU or GPU benchmark.
	Kind hw.Kind
	// PerfUnit names the reported performance metric, e.g. "GB/s",
	// "GFLOP/s", "GUP/s".
	PerfUnit string
	// PerfPerUnitRate converts a work-unit rate (units/s) into the
	// reported metric (e.g. 1e-9 to report GB/s when the unit is a byte).
	PerfPerUnitRate float64
	// Phases is the phase list; weights sum to 1.
	Phases []Phase
}

// Validate reports a descriptive error if the workload or any phase is
// inconsistent.
func (w *Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workload with empty name")
	}
	if len(w.Phases) == 0 {
		return fmt.Errorf("workload %q: no phases", w.Name)
	}
	if w.PerfPerUnitRate <= 0 {
		return fmt.Errorf("workload %q: non-positive perf scale", w.Name)
	}
	total := 0.0
	for i := range w.Phases {
		if err := w.Phases[i].Validate(); err != nil {
			return fmt.Errorf("workload %q: %w", w.Name, err)
		}
		total += w.Phases[i].Weight
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("workload %q: phase weights sum to %v, want 1", w.Name, total)
	}
	return nil
}

// ComputeIntensity returns the work-weighted mean ops-per-byte across
// phases — the paper's notion of compute intensity.
func (w *Workload) ComputeIntensity() float64 {
	ops, bytes := 0.0, 0.0
	for _, p := range w.Phases {
		ops += p.Weight * p.OpsPerUnit
		bytes += p.Weight * p.BytesPerUnit
	}
	if bytes == 0 {
		return 1e9
	}
	return ops / bytes
}

// MeanActivity returns the work-weighted base activity, a rough proxy for
// the workload's maximum power appetite.
func (w *Workload) MeanActivity() float64 {
	a := 0.0
	for _, p := range w.Phases {
		a += p.Weight * p.ActivityBase
	}
	return a
}

// NormalizeWeights rescales the phases' weights in place so they sum to
// exactly 1.0 (bit-exact, not merely within tolerance). Weights built
// from float arithmetic — 1.0/3 per phase, sequence-length ratios —
// drift by an ulp or two; that drift either trips Validate's sum check
// or, worse, passes it and then mis-splits time in dyncoord plan tables
// whose slices are Weight/rate. After rescaling, the largest weight
// absorbs the residual so the in-order sum is exact; the exactness is
// checked, not assumed.
func NormalizeWeights(phases []Phase) error {
	if len(phases) == 0 {
		return fmt.Errorf("normalize: no phases")
	}
	sum := 0.0
	for i := range phases {
		if w := phases[i].Weight; w <= 0 || !(w < 1e18) {
			return fmt.Errorf("normalize: phase %q: weight %v not a positive finite number",
				phases[i].Name, w)
		}
		sum += phases[i].Weight
	}
	largest := 0
	for i := range phases {
		phases[i].Weight /= sum
		if phases[i].Weight > phases[largest].Weight {
			largest = i
		}
	}
	// Float addition is not associative, so force the residual into the
	// largest weight until the in-order sum (the one Validate and the
	// plan tables compute) is exactly 1. This converges in one or two
	// rounds; the bound guards pathological inputs.
	for round := 0; round < 4; round++ {
		total := 0.0
		for i := range phases {
			total += phases[i].Weight
		}
		if total == 1 {
			return nil
		}
		phases[largest].Weight += 1 - total
		if phases[largest].Weight <= 0 {
			return fmt.Errorf("normalize: residual %v exceeds largest weight", total-1)
		}
	}
	return fmt.Errorf("normalize: weights did not converge to an exact sum of 1")
}

// Normalized returns a copy of the workload with phase weights
// normalized to an exact sum of 1 via NormalizeWeights.
func (w Workload) Normalized() (Workload, error) {
	out := w.Clone()
	if err := NormalizeWeights(out.Phases); err != nil {
		return Workload{}, fmt.Errorf("workload %q: %w", w.Name, err)
	}
	return out, nil
}

// catalog is AllWorkloads built once and indexed by name, with the
// names sorted for error messages. Its entries are shared: every ByName
// of one name returns the same phase slice, and no code writes to it.
var catalog = sync.OnceValues(func() (map[string]Workload, []string) {
	byName := map[string]Workload{}
	var names []string
	for _, w := range AllWorkloads() {
		byName[w.Name] = w
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return byName, names
})

// ByName returns the workload with the given name from the full model
// set (the Table 3 catalog plus the ML inference additions). It returns
// the shared catalog entry without copying: its Phases slice is the
// catalog's own, read-only for every caller. A caller that needs a
// variant writes to a Clone. The error lists valid names.
func ByName(name string) (Workload, error) {
	byName, names := catalog()
	w, ok := byName[name]
	if !ok {
		return Workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
	}
	return w, nil
}

// Clone returns w with its own copy of the phase slice, so writing to
// the clone's phases leaves w, and the catalog entry w may be,
// unchanged.
func (w Workload) Clone() Workload {
	w.Phases = append([]Phase(nil), w.Phases...)
	return w
}

// CPUWorkloads returns the eleven CPU benchmarks of Table 3 in paper
// order.
func CPUWorkloads() []Workload {
	var out []Workload
	for _, w := range Catalog() {
		if w.Kind == hw.KindCPU {
			out = append(out, w)
		}
	}
	return out
}

// GPUWorkloads returns the six GPU benchmarks of Table 3 in paper order.
func GPUWorkloads() []Workload {
	var out []Workload
	for _, w := range Catalog() {
		if w.Kind == hw.KindGPU {
			out = append(out, w)
		}
	}
	return out
}

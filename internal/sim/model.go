package sim

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/nvgov"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
	"repro/internal/units"
	"repro/internal/workload"
)

// Model is the simulator bound to one platform, workload and option
// set, for callers that run the pair many times (a decision-table
// build, a profile's capped runs). Bind validates the pair once and
// tables each phase's operating point per discrete actuator state,
// filled by the first run that reaches the state and read by every
// later one. On a CPU the tabled point is the pattern solve before DRAM
// throttling (solveCPUPattern), which reads only the phase and the
// package state; the run's DRAM ceiling is applied per run. On a GPU it
// is the whole point (solveGPUPoint) per SM bin and memory clock, for
// the settable grid and the nominal clock; a run at any other memory
// clock solves directly. The actuators' DVFS ladders are not the
// model's: bound or not, a run's actuator reads its spec's ladder
// (hw.CPUSpec.PStateBins, hw.GPUSpec.SMClockBins), shared by every run
// when the spec is a catalog entry.
//
// Every run returns what the unbound entry point returns for the same
// arguments, bit for bit, errors included: a tabled point is the one the
// solve would compute.
//
// A Model is safe for concurrent use, and its read path takes no lock:
// a table slot is published by an atomic store, and two runs that fill
// one slot at once store equal points. The tables belong to the Model
// and are freed with it; nothing outside it refers to them. The Model
// keeps a copy of the workload Bind was given, which shares its phases:
// the caller must not modify them while the Model is in use, and no
// run writes through them.
type Model struct {
	p    hw.Platform
	w    workload.Workload
	opts Options
	// mems is the GPU memory clock grid (hw.GPUMemSpec.Clocks) and the
	// nominal clock, ascending; nil on CPU platforms.
	mems []units.Frequency
	// states is a row's length: the actuator's state count.
	states int
	// rows[i] holds phase i's points on a CPU platform; on a GPU,
	// rows[i·len(mems)+k] holds them at memory clock mems[k]. The first
	// run that needs a row creates it.
	rows []atomic.Pointer[pointRow]
}

// pointRow holds one phase's operating points by actuator state index;
// a nil slot has not been solved yet.
type pointRow []atomic.Pointer[perfmodel.OperatingPoint]

// Bind validates platform p and workload w, which must be of one kind,
// and returns their model. opts applies to the CPU runs, as it does in
// RunCPUOpts.
func Bind(p hw.Platform, w *workload.Workload, opts Options) (*Model, error) {
	if err := check(p, w, p.Kind); err != nil {
		return nil, err
	}
	m := &Model{p: p, w: *w, opts: opts}
	switch p.Kind {
	case hw.KindCPU:
		m.states = len(p.CPU.PStateBins()) + p.CPU.NumDuties()
		m.rows = make([]atomic.Pointer[pointRow], len(w.Phases))
	case hw.KindGPU:
		m.states = len(p.GPU.SMClockBins())
		m.mems = p.GPU.Mem.Clocks()
		// The default driver policy runs the nominal clock, which need
		// not lie on the grid.
		if nom := p.GPU.Mem.ClockNom; m.memIndex(nom) < 0 {
			m.mems = append(m.mems, nom)
			slices.Sort(m.mems)
		}
		m.rows = make([]atomic.Pointer[pointRow], len(w.Phases)*len(m.mems))
	}
	return m, nil
}

// RunCPU is RunCPUOpts on the bound pair with the bound options.
func (m *Model) RunCPU(procCap, memCap units.Power) (Result, error) {
	if err := m.checkKind(hw.KindCPU); err != nil {
		return Result{}, err
	}
	return cpuRun(m.p, &m.w, procCap, memCap, m.opts, m)
}

// RunGPU is RunGPU on the bound pair.
func (m *Model) RunGPU(totalCap units.Power, memClock units.Frequency) (Result, error) {
	if err := m.checkKind(hw.KindGPU); err != nil {
		return Result{}, err
	}
	return gpuRun(m.p, &m.w, totalCap, gpuClocks{mem: memClock}, m)
}

// RunGPUMemPower is RunGPUMemPower on the bound pair.
func (m *Model) RunGPUMemPower(totalCap, memBudget units.Power) (Result, error) {
	if err := m.checkKind(hw.KindGPU); err != nil {
		return Result{}, err
	}
	return m.RunGPU(totalCap, m.p.GPU.Mem.ClockForPower(memBudget))
}

// RunGPUOffsets is RunGPUOffsets on the bound pair.
func (m *Model) RunGPUOffsets(totalCap units.Power, smOffset, memOffset units.Frequency) (Result, error) {
	if err := m.checkKind(hw.KindGPU); err != nil {
		return Result{}, err
	}
	return gpuRun(m.p, &m.w, totalCap, gpuClocks{offsets: true, sm: smOffset, mem: memOffset}, m)
}

// checkKind is the one check of the unbound entry points that Bind
// could not make: the platform's kind against the entry point's.
func (m *Model) checkKind(k hw.Kind) error {
	if m.p.Kind != k {
		return fmt.Errorf("sim: platform %q is not a %s platform", m.p.Name, strings.ToUpper(k.String()))
	}
	return nil
}

// row returns row i, creating it on first use; nil for an unbound run.
func (m *Model) row(i int) pointRow {
	if m == nil {
		return nil
	}
	slot := &m.rows[i]
	if r := slot.Load(); r != nil {
		return *r
	}
	r := make(pointRow, m.states)
	if !slot.CompareAndSwap(nil, &r) {
		return *slot.Load()
	}
	return r
}

// memIndex returns the index of memory clock f in the bound grid, or -1
// when the run is unbound or f is off the grid.
func (m *Model) memIndex(f units.Frequency) int {
	if m == nil {
		return -1
	}
	k := sort.Search(len(m.mems), func(i int) bool { return m.mems[i] >= f })
	if k == len(m.mems) || m.mems[k] != f {
		return -1
	}
	return k
}

// gpuRow returns phase i's row at grid memory clock mem, nil for an
// unbound run or an off-grid clock (mem < 0).
func (m *Model) gpuRow(i, mem int) pointRow {
	if m == nil || mem < 0 {
		return nil
	}
	return m.row(i*len(m.mems) + mem)
}

// load returns the point in slot bin, nil when unsolved or unbound.
func (r pointRow) load(bin int) *perfmodel.OperatingPoint {
	if r == nil {
		return nil
	}
	return r[bin].Load()
}

// store publishes op in slot bin (a no-op for an unbound run).
func (r pointRow) store(bin int, op perfmodel.OperatingPoint) {
	if r != nil {
		q := new(perfmodel.OperatingPoint)
		*q = op
		r[bin].Store(q)
	}
}

// cpuPattern is solveCPUPattern for the package state s, which
// ActuateBin numbered bin, read from the row when a run solved it.
func (r pointRow) cpuPattern(bin int, p hw.Platform, ph *workload.Phase, s rapl.PackageState, opts Options) perfmodel.OperatingPoint {
	if q := r.load(bin); q != nil {
		return *q
	}
	op := solveCPUPattern(p, ph, s, opts)
	r.store(bin, op)
	return op
}

// gpuPoint is solveGPUPoint for the board state s, which ActuateBin
// numbered bin, read from the row when a run solved it.
func (r pointRow) gpuPoint(bin int, p hw.Platform, ph *workload.Phase, s nvgov.State) perfmodel.OperatingPoint {
	if q := r.load(bin); q != nil {
		return *q
	}
	op := solveGPUPoint(p, ph, s)
	r.store(bin, op)
	return op
}

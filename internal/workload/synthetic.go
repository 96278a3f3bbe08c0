package workload

import (
	"fmt"

	"repro/internal/hw"
)

// SyntheticSpec describes a custom workload in application-level terms so
// users can model their own codes without hand-tuning phase parameters.
// The builder maps these to the simulator's phase model.
type SyntheticSpec struct {
	// Name identifies the workload.
	Name string
	// Kind selects CPU or GPU execution.
	Kind hw.Kind
	// OpsPerByte is the arithmetic intensity (FLOPs per DRAM byte). Use
	// small values (<0.5) for bandwidth-bound codes, large (>5) for
	// compute-bound ones.
	OpsPerByte float64
	// Randomness in [0,1] is the fraction of irregular memory traffic;
	// it lowers the reachable bandwidth and raises per-byte DRAM energy.
	Randomness float64
	// Vectorized in [0,1] scales how much of the peak instruction
	// throughput the inner loops reach.
	Vectorized float64
	// OverlapQuality in [0,1] maps to the compute/memory overlap
	// exponent: 0 means strictly serialized phases of work, 1 means
	// software-pipelined perfect overlap.
	OverlapQuality float64
	// PhaseImbalance in [0,1] splits the work into two phases whose
	// memory traffic differs by the given factor; 0 keeps a single
	// phase.
	PhaseImbalance float64
}

// Validate reports descriptive errors for out-of-range parameters.
func (s *SyntheticSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("synthetic: empty name")
	case s.OpsPerByte <= 0:
		return fmt.Errorf("synthetic %q: non-positive intensity", s.Name)
	case s.Randomness < 0 || s.Randomness > 1:
		return fmt.Errorf("synthetic %q: randomness %v out of [0,1]", s.Name, s.Randomness)
	case s.Vectorized < 0 || s.Vectorized > 1:
		return fmt.Errorf("synthetic %q: vectorized %v out of [0,1]", s.Name, s.Vectorized)
	case s.OverlapQuality < 0 || s.OverlapQuality > 1:
		return fmt.Errorf("synthetic %q: overlap %v out of [0,1]", s.Name, s.OverlapQuality)
	case s.PhaseImbalance < 0 || s.PhaseImbalance > 1:
		return fmt.Errorf("synthetic %q: imbalance %v out of [0,1]", s.Name, s.PhaseImbalance)
	}
	return nil
}

// Build materializes the spec into a simulator workload. Work units are
// operations, so performance reports as GFLOP/s.
func (s *SyntheticSpec) Build() (Workload, error) {
	if err := s.Validate(); err != nil {
		return Workload{}, err
	}
	bytesPerOp := 1 / s.OpsPerByte

	// Pattern efficiency: streaming reaches 80% of peak, heavy
	// randomness only a few percent (latency bound).
	bwEff := 0.8*(1-s.Randomness) + 0.06*s.Randomness
	computeEff := 0.25 + 0.65*s.Vectorized
	overlap := 1 + 3*s.OverlapQuality
	// Busy activity rises with vectorization; stalled activity is the
	// usual fraction of it.
	actBase := 0.5 + 0.4*s.Vectorized
	actStall := 0.45 * actBase / 0.9

	mk := func(name string, weight, traffic float64) Phase {
		return Phase{
			Name: name, Weight: weight,
			OpsPerUnit: 1, BytesPerUnit: traffic,
			RandomFrac:   s.Randomness,
			BandwidthEff: bwEff, ComputeEff: computeEff,
			Overlap:      overlap,
			ActivityBase: actBase, StallActivity: actStall,
		}
	}

	w := Workload{
		Name:            s.Name,
		Suite:           "synthetic",
		Desc:            fmt.Sprintf("synthetic: %.2g ops/byte, %.0f%% random", s.OpsPerByte, 100*s.Randomness),
		Kind:            s.Kind,
		PerfUnit:        "GFLOP/s",
		PerfPerUnitRate: 1e-9,
	}
	if s.PhaseImbalance == 0 {
		w.Phases = []Phase{mk("steady", 1, bytesPerOp)}
	} else {
		// Two phases around the mean traffic: one lighter, one heavier,
		// keeping the average intensity equal to the spec.
		lighter := bytesPerOp * (1 - s.PhaseImbalance)
		heavier := bytesPerOp * (1 + s.PhaseImbalance)
		w.Phases = []Phase{
			mk("light", 0.5, lighter),
			mk("heavy", 0.5, heavier),
		}
	}
	if err := w.Validate(); err != nil {
		return Workload{}, err
	}
	return w, nil
}

// Scaled returns a copy of w with every phase's memory traffic multiplied
// by factor — the first-order effect of growing the problem size past the
// cache capacity (cache hit rates drop, DRAM bytes per operation rise) or
// shrinking it to fit (factor < 1). Factors must be positive.
func Scaled(w Workload, factor float64) (Workload, error) {
	if factor <= 0 {
		return Workload{}, fmt.Errorf("workload: non-positive traffic factor %v", factor)
	}
	out := w.Clone()
	out.Name = fmt.Sprintf("%s(x%.2g)", w.Name, factor)
	for i := range out.Phases {
		out.Phases[i].BytesPerUnit *= factor
	}
	if err := out.Validate(); err != nil {
		return Workload{}, err
	}
	return out, nil
}

// Package faults is a seeded, deterministic fault injector for the
// power-coordination stack. It models the failure classes a production
// power-capped fleet faces — noisy or dropped RAPL sensor readings,
// failed, stuck, or delayed cap actuation, transient node failures, and
// facility budget shocks — so the control path can be tested against the
// conditions FastCap and EcoShift identify as the hard part of power
// capping: keeping the budget invariant while telemetry and actuators
// misbehave.
//
// Everything the injector does is a pure function of (Spec, seed): two
// runs with the same spec and seed produce identical fault sequences,
// byte for byte, which is what makes fault replays debuggable and the
// resilience tests exact.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Spec declares fault rates and magnitudes for every injection point.
// The zero value injects nothing.
type Spec struct {
	// SensorDrop is the probability a power-sensor reading is dropped
	// (the consumer sees no sample this step and must act on stale data).
	SensorDrop float64
	// SensorNoise is the relative standard deviation of multiplicative
	// Gaussian noise on sensor readings (0.05 = 5% noise).
	SensorNoise float64
	// CapFail is the probability a cap write returns an error.
	CapFail float64
	// CapStuck is the probability a cap write reports success but does
	// not take effect — the failure mode only readback verification
	// catches.
	CapStuck float64
	// NodeMTBF is the mean time between node failures in seconds
	// (exponential). Zero means nodes never fail.
	NodeMTBF float64
	// NodeMTTR is the mean time to repair a failed node in seconds
	// (exponential). Zero with a non-zero MTBF means failed nodes never
	// return.
	NodeMTTR float64
	// ShockMTBS is the mean time between facility budget shocks in
	// seconds (exponential). Zero means the budget never shocks.
	ShockMTBS float64
	// ShockFrac is the fraction of the facility budget lost during a
	// shock.
	ShockFrac float64
	// ShockLen is the mean shock duration in seconds (exponential).
	ShockLen float64
}

// specFields maps spec-string keys to accessors, in the canonical
// (sorted) order used by String.
var specFields = []struct {
	key string
	get func(*Spec) *float64
}{
	{"cap.fail", func(s *Spec) *float64 { return &s.CapFail }},
	{"cap.stuck", func(s *Spec) *float64 { return &s.CapStuck }},
	{"node.mtbf", func(s *Spec) *float64 { return &s.NodeMTBF }},
	{"node.mttr", func(s *Spec) *float64 { return &s.NodeMTTR }},
	{"sensor.drop", func(s *Spec) *float64 { return &s.SensorDrop }},
	{"sensor.noise", func(s *Spec) *float64 { return &s.SensorNoise }},
	{"shock.frac", func(s *Spec) *float64 { return &s.ShockFrac }},
	{"shock.len", func(s *Spec) *float64 { return &s.ShockLen }},
	{"shock.mtbs", func(s *Spec) *float64 { return &s.ShockMTBS }},
}

// ParseSpec parses a compact fault-spec string of comma-separated
// key=value pairs, e.g.
//
//	"sensor.drop=0.1,sensor.noise=0.05,cap.fail=0.2,node.mtbf=400,node.mttr=60"
//
// Unknown keys, repeated keys, and malformed values are errors. The
// empty string parses to the zero Spec (no faults).
func ParseSpec(s string) (Spec, error) {
	var sp Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return sp, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Spec{}, fmt.Errorf("faults: empty entry in spec %q", s)
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: entry %q is not key=value", part)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if seen[key] {
			return Spec{}, fmt.Errorf("faults: duplicate key %q", key)
		}
		seen[key] = true
		dst := fieldByKey(&sp, key)
		if dst == nil {
			return Spec{}, fmt.Errorf("faults: unknown key %q (valid: %s)", key, strings.Join(specKeys(), " "))
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("faults: key %q: bad value %q: %w", key, val, err)
		}
		*dst = f
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

func fieldByKey(sp *Spec, key string) *float64 {
	for _, f := range specFields {
		if f.key == key {
			return f.get(sp)
		}
	}
	return nil
}

func specKeys() []string {
	keys := make([]string, len(specFields))
	for i, f := range specFields {
		keys[i] = f.key
	}
	sort.Strings(keys)
	return keys
}

// String renders the spec canonically: non-zero fields only, sorted by
// key. ParseSpec(s.String()) reproduces s exactly.
func (sp Spec) String() string {
	var parts []string
	for _, f := range specFields {
		if v := *f.get(&sp); v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%s", f.key, strconv.FormatFloat(v, 'g', -1, 64)))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// minMeanSeconds is the smallest non-zero mean time a spec accepts for
// node.mtbf, node.mttr and shock.mtbs. Below it an exponential draw
// barely moves t, so a schedule drawn up to a horizon never gets there
// and a cluster simulation spends its whole event budget on faults.
const minMeanSeconds = 1e-3

// Validate rejects out-of-range rates and magnitudes.
func (sp Spec) Validate() error {
	for _, f := range specFields {
		if v := *f.get(&sp); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("faults: %s=%v is not finite", f.key, v)
		}
	}
	probs := []struct {
		name string
		v    float64
	}{
		{"sensor.drop", sp.SensorDrop},
		{"cap.fail", sp.CapFail},
		{"cap.stuck", sp.CapStuck},
		{"shock.frac", sp.ShockFrac},
	}
	for _, p := range probs {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s=%v outside [0, 1]", p.name, p.v)
		}
	}
	nonneg := []struct {
		name string
		v    float64
		mean bool // zero disables the process; else at least minMeanSeconds
	}{
		{"sensor.noise", sp.SensorNoise, false},
		{"node.mtbf", sp.NodeMTBF, true},
		{"node.mttr", sp.NodeMTTR, true},
		{"shock.mtbs", sp.ShockMTBS, true},
		{"shock.len", sp.ShockLen, false},
	}
	for _, p := range nonneg {
		if p.v < 0 {
			return fmt.Errorf("faults: %s=%v negative", p.name, p.v)
		}
		if p.mean && p.v > 0 && p.v < minMeanSeconds {
			return fmt.Errorf("faults: %s=%v below the minimum mean of %v s (0 disables it)", p.name, p.v, minMeanSeconds)
		}
	}
	if sp.SensorNoise > 1 {
		return fmt.Errorf("faults: sensor.noise=%v above 1 (relative std-dev)", sp.SensorNoise)
	}
	return nil
}

// Zero reports whether the spec injects no faults at all.
func (sp Spec) Zero() bool {
	return sp == Spec{}
}

// Scale returns the spec with every fault made factor times as frequent:
// probabilities multiply (clamped to 1), mean times between failures
// divide, down to the minimum mean Validate accepts and up to the
// largest finite one. Repair times, shock magnitude, and shock length
// are severities rather than frequencies and stay fixed. Scale(0) is
// the fault-free spec.
func (sp Spec) Scale(factor float64) Spec {
	if factor < 0 {
		factor = 0
	}
	clamp01 := func(v float64) float64 {
		if v > 1 {
			return 1
		}
		return v
	}
	out := sp
	out.SensorDrop = clamp01(sp.SensorDrop * factor)
	out.SensorNoise = clamp01(sp.SensorNoise * factor)
	out.CapFail = clamp01(sp.CapFail * factor)
	out.CapStuck = clamp01(sp.CapStuck * factor)
	mean := func(v float64) float64 {
		if v == 0 || factor == 0 {
			return 0
		}
		return math.Min(math.Max(v/factor, minMeanSeconds), math.MaxFloat64)
	}
	out.NodeMTBF = mean(sp.NodeMTBF)
	out.ShockMTBS = mean(sp.ShockMTBS)
	return out
}

package faults

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rapl"
	"repro/internal/units"
)

// ErrInjected is the sentinel wrapped by every error the injector
// fabricates, so callers can distinguish injected faults from real ones
// with errors.Is.
var ErrInjected = errors.New("injected fault")

// Injector draws faults from a Spec deterministically. Each fault class
// consumes its own forked RNG stream, so e.g. enabling sensor noise
// cannot shift which cap writes fail.
type Injector struct {
	spec Spec
	seed uint64

	sensorDrop  *RNG
	sensorNoise *RNG
	cap         *RNG
	root        *RNG
}

// NewInjector returns an injector for the given spec and seed.
func NewInjector(spec Spec, seed uint64) *Injector {
	root := NewRNG(seed)
	return &Injector{
		spec:        spec,
		seed:        seed,
		root:        root,
		sensorDrop:  root.Fork("sensor.drop"),
		sensorNoise: root.Fork("sensor.noise"),
		cap:         root.Fork("cap"),
	}
}

// Spec returns the injector's fault spec.
func (in *Injector) Spec() Spec { return in.spec }

// Seed returns the injector's seed.
func (in *Injector) Seed() uint64 { return in.seed }

// SensorRead passes a true power reading through the sensor fault model.
// ok is false when the sample is dropped; otherwise the returned value
// carries multiplicative Gaussian noise (never negative).
func (in *Injector) SensorRead(truth units.Power) (units.Power, bool) {
	if in == nil {
		return truth, true
	}
	if in.spec.SensorDrop > 0 && in.sensorDrop.Float64() < in.spec.SensorDrop {
		return 0, false
	}
	if in.spec.SensorNoise > 0 {
		factor := 1 + in.spec.SensorNoise*in.sensorNoise.Norm()
		if factor < 0 {
			factor = 0
		}
		truth = units.Power(truth.Watts() * factor)
	}
	return truth, true
}

// CapFate is the injector's verdict on one cap-write attempt.
type CapFate int

// Cap-write fates.
const (
	// CapOK: the write goes through to the real actuator.
	CapOK CapFate = iota
	// CapError: the write fails with an (injected) error.
	CapError
	// CapStuckFate: the write reports success but is silently dropped.
	CapStuckFate
)

// CapAttempt draws the fate of one cap-write attempt.
func (in *Injector) CapAttempt() CapFate {
	if in == nil {
		return CapOK
	}
	u := in.cap.Float64()
	switch {
	case u < in.spec.CapFail:
		return CapError
	case u < in.spec.CapFail+in.spec.CapStuck:
		return CapStuckFate
	default:
		return CapOK
	}
}

// Outage is one failure interval of a node: it fails at At and returns
// to service at At+Duration.
type Outage struct {
	At, Duration float64
}

// NodeOutages returns the deterministic outage schedule for a node over
// [0, horizon) seconds. The schedule depends only on (spec, seed,
// nodeID): replaying with the same inputs reproduces it exactly, and
// adding nodes does not perturb the schedules of existing ones.
func (in *Injector) NodeOutages(nodeID string, horizon float64) []Outage {
	if in == nil || in.spec.NodeMTBF <= 0 || horizon <= 0 {
		return nil
	}
	d := in.outageDraws(nodeID, horizon)
	var out []Outage
	for o, ok := d.next(); ok; o, ok = d.next() {
		out = append(out, o)
	}
	return out
}

// outageDraws is one node's outage schedule, drawn one outage at a
// time from the node's own stream.
type outageDraws struct {
	rng        *RNG
	mtbf, mttr float64
	horizon, t float64
	done       bool
}

func (in *Injector) outageDraws(nodeID string, horizon float64) *outageDraws {
	return &outageDraws{rng: in.root.Fork("node/" + nodeID),
		mtbf: in.spec.NodeMTBF, mttr: in.spec.NodeMTTR, horizon: horizon}
}

// next returns the node's next outage; ok is false once the schedule
// has reached the horizon or the node has failed for good.
func (d *outageDraws) next() (o Outage, ok bool) {
	if d.done {
		return Outage{}, false
	}
	d.t += d.rng.Exp(d.mtbf)
	if d.t >= d.horizon || math.IsInf(d.t, 1) {
		d.done = true
		return Outage{}, false
	}
	down := d.rng.Exp(d.mttr)
	if d.mttr <= 0 {
		down = math.Inf(1) // never repaired
	}
	o = Outage{At: d.t, Duration: down}
	if math.IsInf(down, 1) {
		d.done = true
	} else {
		d.t += down
	}
	return o, true
}

// FaultyController interposes the injector's actuator faults between a
// caller and a real rapl limit setter. It satisfies rapl.LimitSetter, so
// it can sit under rapl.NewResilient — the intended stacking:
//
//	resilient -> faulty -> real controller
//
// Reads (Limit) are never faulted: readback is how the resilient layer
// detects stuck writes.
type FaultyController struct {
	target rapl.LimitSetter
	inj    *Injector

	// Writes, Failed, and Stuck count write attempts by fate.
	Writes, Failed, Stuck int
}

// NewFaultyController wraps target with the injector's actuator faults.
func NewFaultyController(target rapl.LimitSetter, inj *Injector) *FaultyController {
	return &FaultyController{target: target, inj: inj}
}

// SetLimit forwards the write unless the injector fails or sticks it.
func (f *FaultyController) SetLimit(d rapl.Domain, cap units.Power) error {
	f.Writes++
	switch f.inj.CapAttempt() {
	case CapError:
		f.Failed++
		return fmt.Errorf("faults: cap write %v=%v failed: %w", d, cap, ErrInjected)
	case CapStuckFate:
		f.Stuck++
		return nil // reported success, silently dropped
	default:
		return f.target.SetLimit(d, cap)
	}
}

// Limit reads back the true programmed limit.
func (f *FaultyController) Limit(d rapl.Domain) (units.Power, bool) {
	return f.target.Limit(d)
}

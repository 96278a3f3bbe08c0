package rapl

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/units"
)

// LimitSetter is the cap-programming surface of a RAPL controller: what
// the resilience layer needs from the hardware, and what fault injectors
// interpose on. *Controller satisfies it.
type LimitSetter interface {
	SetLimit(d Domain, cap units.Power) error
	Limit(d Domain) (units.Power, bool)
}

var _ LimitSetter = (*Controller)(nil)

// ErrCapWriteExhausted is wrapped by SetLimit errors from the resilient
// controller after the retry budget is spent.
var ErrCapWriteExhausted = errors.New("rapl: cap write retries exhausted")

// RetryPolicy bounds how a failed cap write is retried: exponential
// backoff from Base to Max with deterministic, seeded jitter. The zero
// value retries nothing (one attempt, no backoff).
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first write.
	MaxRetries int
	// Base is the backoff before the first retry; it doubles per retry.
	Base time.Duration
	// Max caps the per-retry backoff. Zero means no cap.
	Max time.Duration
	// Jitter is the fraction of each backoff randomized into
	// [1-Jitter, 1+Jitter], derived deterministically from Seed so two
	// runs of a fault replay back off identically.
	Jitter float64
	// Seed keys the jitter sequence.
	Seed uint64
}

// DefaultRetryPolicy is the policy the faults experiments use: 4 retries
// from 1 ms, capped at 20 ms, 25% jitter.
func DefaultRetryPolicy(seed uint64) RetryPolicy {
	return RetryPolicy{MaxRetries: 4, Base: time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.25, Seed: seed}
}

// Backoff returns the delay before retry attempt (1-based). It is a pure
// function of the policy, so backoff schedules replay exactly.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	if attempt < 1 || p.Base <= 0 {
		return 0
	}
	d := p.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.Max > 0 && d >= p.Max {
			d = p.Max
			break
		}
	}
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	if p.Jitter > 0 {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		// splitmix64 of (seed, attempt) -> uniform in [1-j, 1+j].
		z := p.Seed + uint64(attempt)*0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		u := float64((z^(z>>31))>>11) / (1 << 53)
		d = time.Duration(float64(d) * (1 - j + 2*j*u))
	}
	return d
}

// RetryStats counts what the resilient layer did, for the fault reports.
type RetryStats struct {
	// Writes is the number of SetLimit calls accepted.
	Writes int
	// Retries is the number of re-attempts across all writes.
	Retries int
	// ReadbackMismatches counts writes that reported success but did not
	// take effect (stuck actuator caught by readback).
	ReadbackMismatches int
	// Exhausted counts writes that failed even after all retries.
	Exhausted int
	// BackoffTotal is the summed backoff the policy imposed (virtual
	// time: the simulator accounts for it, nothing sleeps).
	BackoffTotal time.Duration
}

// ResilientController hardens cap programming against actuator faults:
// every SetLimit is verified by reading the limit back and retried with
// bounded, deterministic backoff when the write errors or did not take
// effect. It satisfies LimitSetter, so it stacks on a *Controller
// directly or on a fault-injecting wrapper.
type ResilientController struct {
	target LimitSetter
	policy RetryPolicy
	stats  RetryStats
}

// NewResilient wraps target with the given retry policy.
func NewResilient(target LimitSetter, policy RetryPolicy) *ResilientController {
	return &ResilientController{target: target, policy: policy}
}

// Stats returns a snapshot of the retry counters.
func (r *ResilientController) Stats() RetryStats { return r.stats }

// verified reports whether the programmed limit matches the requested
// cap, modulo the register's fixed-point quantization (one PowerUnit).
func (r *ResilientController) verified(d Domain, cap units.Power) bool {
	got, enabled := r.target.Limit(d)
	if cap <= 0 {
		return !enabled
	}
	if !enabled {
		return false
	}
	diff := got.Watts() - cap.Watts()
	if diff < 0 {
		diff = -diff
	}
	return diff <= PowerUnit+1e-9
}

// SetLimit programs a cap, verifying by readback and retrying per the
// policy. The returned error wraps ErrCapWriteExhausted (and the last
// underlying write error, if any) when the retry budget is spent. A cap
// the register cannot hold is bad input, not an actuator fault: its
// *LimitRangeError returns at once, with no retry and no exhaustion
// counted.
func (r *ResilientController) SetLimit(d Domain, cap units.Power) error {
	r.stats.Writes++
	mCapWrites.Inc()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			r.stats.Retries++
			mCapRetries.Inc()
			backoff := r.policy.Backoff(attempt)
			r.stats.BackoffTotal += backoff
			mBackoffSeconds.Observe(backoff.Seconds())
		}
		err := r.target.SetLimit(d, cap)
		if errors.Is(err, ErrLimitOutOfRange) {
			return err // names the domain and the cap
		}
		if err == nil {
			if r.verified(d, cap) {
				return nil
			}
			r.stats.ReadbackMismatches++
			mReadbackMismatches.Inc()
			lastErr = fmt.Errorf("rapl: %v cap write to %v reported success but did not take effect", d, cap)
		} else {
			lastErr = err
		}
		if attempt >= r.policy.MaxRetries {
			break
		}
	}
	r.stats.Exhausted++
	mCapExhausted.Inc()
	return fmt.Errorf("rapl: set %v limit to %v after %d attempts: %w: %w",
		d, cap, r.policy.MaxRetries+1, ErrCapWriteExhausted, lastErr)
}

// Limit reads back the programmed limit.
func (r *ResilientController) Limit(d Domain) (units.Power, bool) {
	return r.target.Limit(d)
}

// FailsafeSplit is a precomputed emergency allocation: the caps the
// watchdog clamps both domains to when the node shows sustained budget
// overshoot. It is computed once, up front, from hardware constants only
// — when the watchdog fires, no profile, sensor, or optimizer needs to
// be trusted.
type FailsafeSplit struct {
	Proc, Mem units.Power
}

// Total returns the failsafe node total.
func (f FailsafeSplit) Total() units.Power { return f.Proc + f.Mem }

// failsafeGuardFrac is the fraction of the bound the failsafe split
// holds back, absorbing actuator quantization and the DRAM floor's
// softness.
const failsafeGuardFrac = 0.05

// PrecomputeFailsafe derives the failsafe split for a node bound from
// the hardware specs: memory gets its unavoidable background power plus
// the minimum throttle headroom (the least that keeps it controllable),
// the processor gets the rest of 95% of the bound, floored at its idle
// power. The split is deliberately conservative — its job is to be
// always safe and always actuatable, not fast.
func PrecomputeFailsafe(cpu *hw.CPUSpec, dram *hw.DRAMSpec, bound units.Power) FailsafeSplit {
	usable := units.Power(bound.Watts() * (1 - failsafeGuardFrac))
	mem := dram.BackgroundPower + dram.MinThrottleHeadroom
	proc := usable - mem
	if proc < cpu.IdlePower {
		proc = cpu.IdlePower
	}
	return FailsafeSplit{Proc: proc, Mem: mem}
}

// Watchdog detects sustained violation of the node power bound from the
// windowed power samples it is fed and clamps both domains to the
// failsafe split. It is the last line of defense when cap writes are
// silently failing or sensors lied long enough for a bad allocation to
// be programmed: the paper's "never exceed P_b" contract, enforced
// even when the normal control path is compromised.
type Watchdog struct {
	// Bound is the node power bound P_b being defended.
	Bound units.Power
	// Tolerance is the guard band above Bound that does not count as
	// overshoot (actuator quantization, window transients).
	Tolerance units.Power
	// TripAfter is the number of consecutive overshoot samples that
	// engage the failsafe.
	TripAfter int
	// ReleaseAfter is the number of consecutive compliant samples that
	// release it again.
	ReleaseAfter int
	// Failsafe is the precomputed clamp allocation.
	Failsafe FailsafeSplit

	ctrl LimitSetter

	engaged     bool
	over, under int

	// Engagements counts failsafe activations; WorstOvershoot is the
	// largest observed excess over Bound.
	Engagements    int
	WorstOvershoot units.Power
}

// NewWatchdog returns a watchdog defending bound through ctrl with the
// default trip/release hysteresis (3 samples to trip, 5 to release).
func NewWatchdog(ctrl LimitSetter, bound, tolerance units.Power, failsafe FailsafeSplit) *Watchdog {
	return &Watchdog{
		Bound: bound, Tolerance: tolerance,
		TripAfter: 3, ReleaseAfter: 5,
		Failsafe: failsafe, ctrl: ctrl,
	}
}

// Engaged reports whether the failsafe clamp is currently in force.
func (wd *Watchdog) Engaged() bool { return wd.engaged }

// clamp programs the failsafe split on both domains.
func (wd *Watchdog) clamp() error {
	if err := wd.ctrl.SetLimit(DomainPackage, wd.Failsafe.Proc); err != nil {
		return fmt.Errorf("rapl: watchdog clamp package: %w", err)
	}
	if err := wd.ctrl.SetLimit(DomainDRAM, wd.Failsafe.Mem); err != nil {
		return fmt.Errorf("rapl: watchdog clamp dram: %w", err)
	}
	return nil
}

// Observe feeds one windowed-average power sample to the watchdog and
// returns whether the failsafe engaged or released on this sample. A
// dropped sensor reading should simply not be fed: the watchdog then
// holds state, which is the conservative behaviour (an engaged clamp
// stays engaged while the node is blind).
func (wd *Watchdog) Observe(windowAvg units.Power) (changed bool, err error) {
	if excess := windowAvg - wd.Bound; excess > wd.WorstOvershoot {
		wd.WorstOvershoot = excess
	}
	if windowAvg > wd.Bound+wd.Tolerance {
		mWatchdogOvershoot.Observe((windowAvg - wd.Bound).Watts())
		wd.over++
		wd.under = 0
		if !wd.engaged && wd.over >= wd.TripAfter {
			if err := wd.clamp(); err != nil {
				// Clamp writes themselves can fail; stay un-engaged so
				// the next sample re-attempts.
				return false, err
			}
			wd.engaged = true
			wd.Engagements++
			mWatchdogEngage.Inc()
			mWatchdogEngaged.Set(1)
			return true, nil
		}
		return false, nil
	}
	if windowAvg <= wd.Bound {
		wd.under++
		wd.over = 0
		if wd.engaged && wd.under >= wd.ReleaseAfter {
			// Release only clears the clamp state; the caller re-programs
			// the allocation it actually wants.
			wd.engaged = false
			mWatchdogRelease.Inc()
			mWatchdogEngaged.Set(0)
			return true, nil
		}
	}
	return false, nil
}

package rapl

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// fakeSetter is a scriptable LimitSetter: it can fail the first N writes,
// silently drop (stick) the next M, and stores the rest.
type fakeSetter struct {
	failFirst  int
	stuckFirst int
	calls      int
	limits     map[Domain]units.Power
	enabled    map[Domain]bool
}

func newFakeSetter() *fakeSetter {
	return &fakeSetter{limits: map[Domain]units.Power{}, enabled: map[Domain]bool{}}
}

var errFakeWrite = errors.New("fake: write failed")

func (f *fakeSetter) SetLimit(d Domain, cap units.Power) error {
	f.calls++
	if f.failFirst > 0 {
		f.failFirst--
		return fmt.Errorf("fake: attempt %d: %w", f.calls, errFakeWrite)
	}
	if f.stuckFirst > 0 {
		f.stuckFirst--
		return nil // reported success, not stored
	}
	f.limits[d] = cap
	f.enabled[d] = cap > 0
	return nil
}

func (f *fakeSetter) Limit(d Domain) (units.Power, bool) {
	return f.limits[d], f.enabled[d]
}

func TestRetryPolicyBackoff(t *testing.T) {
	tests := []struct {
		name   string
		policy RetryPolicy
		checks func(t *testing.T, p RetryPolicy)
	}{
		{
			name:   "zero policy has no backoff",
			policy: RetryPolicy{},
			checks: func(t *testing.T, p RetryPolicy) {
				for a := 0; a < 4; a++ {
					if d := p.Backoff(a); d != 0 {
						t.Fatalf("Backoff(%d) = %v, want 0", a, d)
					}
				}
			},
		},
		{
			name:   "no jitter doubles and caps",
			policy: RetryPolicy{MaxRetries: 5, Base: time.Millisecond, Max: 4 * time.Millisecond},
			checks: func(t *testing.T, p RetryPolicy) {
				want := []time.Duration{
					time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond,
				}
				for i, w := range want {
					if d := p.Backoff(i + 1); d != w {
						t.Fatalf("Backoff(%d) = %v, want %v", i+1, d, w)
					}
				}
			},
		},
		{
			name:   "jitter stays within band",
			policy: RetryPolicy{MaxRetries: 8, Base: 10 * time.Millisecond, Max: time.Second, Jitter: 0.25, Seed: 7},
			checks: func(t *testing.T, p RetryPolicy) {
				for a := 1; a <= 8; a++ {
					base := 10 * time.Millisecond << (a - 1)
					if base > time.Second {
						base = time.Second
					}
					d := p.Backoff(a)
					lo := time.Duration(float64(base) * 0.75)
					hi := time.Duration(float64(base) * 1.25)
					if d < lo || d > hi {
						t.Fatalf("Backoff(%d) = %v outside [%v, %v]", a, d, lo, hi)
					}
				}
			},
		},
		{
			name:   "jitter deterministic under fixed seed",
			policy: RetryPolicy{MaxRetries: 6, Base: time.Millisecond, Max: time.Second, Jitter: 0.5, Seed: 42},
			checks: func(t *testing.T, p RetryPolicy) {
				other := RetryPolicy{MaxRetries: 6, Base: time.Millisecond, Max: time.Second, Jitter: 0.5, Seed: 42}
				for a := 1; a <= 6; a++ {
					if p.Backoff(a) != other.Backoff(a) {
						t.Fatalf("Backoff(%d) differs across identical policies", a)
					}
				}
				reseeded := p
				reseeded.Seed = 43
				same := true
				for a := 1; a <= 6; a++ {
					if p.Backoff(a) != reseeded.Backoff(a) {
						same = false
					}
				}
				if same {
					t.Fatal("jitter sequence identical across different seeds")
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { tc.checks(t, tc.policy) })
	}
}

func TestResilientSetLimit(t *testing.T) {
	tests := []struct {
		name       string
		target     *fakeSetter
		policy     RetryPolicy
		wantErr    bool
		wantStats  func(t *testing.T, s RetryStats)
		wantStored bool
	}{
		{
			name:       "clean write needs no retry",
			target:     newFakeSetter(),
			policy:     RetryPolicy{MaxRetries: 3},
			wantStored: true,
			wantStats: func(t *testing.T, s RetryStats) {
				if s.Retries != 0 || s.Exhausted != 0 {
					t.Fatalf("stats = %+v, want no retries", s)
				}
			},
		},
		{
			name:       "transient failures retried to success",
			target:     &fakeSetter{failFirst: 2, limits: map[Domain]units.Power{}, enabled: map[Domain]bool{}},
			policy:     RetryPolicy{MaxRetries: 3, Base: time.Millisecond},
			wantStored: true,
			wantStats: func(t *testing.T, s RetryStats) {
				if s.Retries != 2 {
					t.Fatalf("Retries = %d, want 2", s.Retries)
				}
				if s.Exhausted != 0 {
					t.Fatalf("Exhausted = %d, want 0", s.Exhausted)
				}
				if s.BackoffTotal <= 0 {
					t.Fatal("BackoffTotal not accumulated")
				}
			},
		},
		{
			name:    "exhaustion after budget spent",
			target:  &fakeSetter{failFirst: 100, limits: map[Domain]units.Power{}, enabled: map[Domain]bool{}},
			policy:  RetryPolicy{MaxRetries: 3, Base: time.Millisecond},
			wantErr: true,
			wantStats: func(t *testing.T, s RetryStats) {
				if s.Retries != 3 || s.Exhausted != 1 {
					t.Fatalf("stats = %+v, want 3 retries 1 exhausted", s)
				}
			},
		},
		{
			name:    "zero-retry config fails on first error",
			target:  &fakeSetter{failFirst: 1, limits: map[Domain]units.Power{}, enabled: map[Domain]bool{}},
			policy:  RetryPolicy{},
			wantErr: true,
			wantStats: func(t *testing.T, s RetryStats) {
				if s.Retries != 0 || s.Exhausted != 1 {
					t.Fatalf("stats = %+v, want 0 retries 1 exhausted", s)
				}
			},
		},
		{
			name:       "stuck write caught by readback and retried",
			target:     &fakeSetter{stuckFirst: 2, limits: map[Domain]units.Power{}, enabled: map[Domain]bool{}},
			policy:     RetryPolicy{MaxRetries: 3, Base: time.Millisecond},
			wantStored: true,
			wantStats: func(t *testing.T, s RetryStats) {
				if s.ReadbackMismatches != 2 {
					t.Fatalf("ReadbackMismatches = %d, want 2", s.ReadbackMismatches)
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := NewResilient(tc.target, tc.policy)
			err := r.SetLimit(DomainPackage, 100)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				if !errors.Is(err, ErrCapWriteExhausted) {
					t.Fatalf("error %v does not wrap ErrCapWriteExhausted", err)
				}
			} else if err != nil {
				t.Fatalf("SetLimit: %v", err)
			}
			if tc.wantStored {
				got, enabled := tc.target.Limit(DomainPackage)
				if !enabled || got != 100 {
					t.Fatalf("target limit = %v (enabled %v), want 100", got, enabled)
				}
			}
			tc.wantStats(t, r.Stats())
		})
	}
}

func TestResilientWrapsUnderlyingError(t *testing.T) {
	target := &fakeSetter{failFirst: 100, limits: map[Domain]units.Power{}, enabled: map[Domain]bool{}}
	r := NewResilient(target, RetryPolicy{MaxRetries: 1})
	err := r.SetLimit(DomainDRAM, 50)
	if !errors.Is(err, errFakeWrite) {
		t.Fatalf("error %v does not wrap the underlying write error", err)
	}
}

func TestResilientOnRealController(t *testing.T) {
	p := hw.IvyBridge()
	ctrl := NewController(p.CPU, p.DRAM)
	r := NewResilient(ctrl, DefaultRetryPolicy(1))
	if err := r.SetLimit(DomainPackage, 120); err != nil {
		t.Fatalf("SetLimit: %v", err)
	}
	got, enabled := ctrl.Limit(DomainPackage)
	if !enabled || got < 119 || got > 121 {
		t.Fatalf("limit = %v (enabled %v), want ~120", got, enabled)
	}
	// Disabling (cap <= 0) must verify too.
	if err := r.SetLimit(DomainPackage, 0); err != nil {
		t.Fatalf("disable: %v", err)
	}
	if _, enabled := ctrl.Limit(DomainPackage); enabled {
		t.Fatal("limit still enabled after disable")
	}
}

// TestResilientRefusesUnrepresentableCapOnce: a cap the register cannot
// hold fails on the first attempt with the controller's range error. It
// is not retried, backs off nothing and counts no exhaustion, in the
// stats or the metrics, and leaves the programmed limit alone.
func TestResilientRefusesUnrepresentableCapOnce(t *testing.T) {
	reg := telemetry.New()
	Instrument(reg)
	defer Instrument(nil)
	p := hw.IvyBridge()
	ctrl := NewController(p.CPU, p.DRAM)
	r := NewResilient(ctrl, DefaultRetryPolicy(1))
	if err := r.SetLimit(DomainPackage, 120); err != nil {
		t.Fatal(err)
	}
	before, _ := ctrl.Limit(DomainPackage)
	caps := []units.Power{units.Power(math.NaN()), units.Power(math.Inf(1)), MaxLimit}
	for _, c := range caps {
		err := r.SetLimit(DomainPackage, c)
		var re *LimitRangeError
		if !errors.Is(err, ErrLimitOutOfRange) || !errors.As(err, &re) || re.Cap.Watts() != c.Watts() && !math.IsNaN(c.Watts()) {
			t.Errorf("cap %v: %v, want a *LimitRangeError", c, err)
		}
		if errors.Is(err, ErrCapWriteExhausted) {
			t.Errorf("cap %v: %v counts as exhausted", c, err)
		}
	}
	if got, _ := ctrl.Limit(DomainPackage); got != before {
		t.Errorf("limit moved from %v to %v", before, got)
	}
	if st := r.Stats(); st != (RetryStats{Writes: 1 + len(caps)}) {
		t.Errorf("stats %+v, want %d writes and nothing else", st, 1+len(caps))
	}
	for _, pt := range reg.Snapshot().Points {
		switch pt.Name {
		case "rapl_cap_write_retries_total", "rapl_cap_writes_exhausted_total":
			if pt.Value != 0 {
				t.Errorf("%s = %v, want 0", pt.Name, pt.Value)
			}
		}
	}
}

func TestPrecomputeFailsafe(t *testing.T) {
	p := hw.IvyBridge()
	for _, bound := range []units.Power{180, 208, 240, 300} {
		fs := PrecomputeFailsafe(p.CPU, p.DRAM, bound)
		if fs.Proc < p.CPU.IdlePower {
			t.Fatalf("bound %v: failsafe proc %v below idle floor %v", bound, fs.Proc, p.CPU.IdlePower)
		}
		if fs.Mem < p.DRAM.BackgroundPower {
			t.Fatalf("bound %v: failsafe mem %v below background %v", bound, fs.Mem, p.DRAM.BackgroundPower)
		}
		// The split must leave guard headroom under the bound (unless
		// the floors themselves exceed it, which these bounds don't).
		if fs.Total() > bound {
			t.Fatalf("bound %v: failsafe total %v exceeds bound", bound, fs.Total())
		}
	}
}

func TestWatchdogEngageAndRelease(t *testing.T) {
	target := newFakeSetter()
	fs := FailsafeSplit{Proc: 90, Mem: 80}
	wd := NewWatchdog(target, 208, 5, fs)

	// Below bound: never engages.
	for i := 0; i < 10; i++ {
		if changed, err := wd.Observe(200); err != nil || changed {
			t.Fatalf("compliant sample %d: changed=%v err=%v", i, changed, err)
		}
	}
	// Exactly at bound+tolerance: still compliant by definition.
	for i := 0; i < 10; i++ {
		if changed, _ := wd.Observe(213); changed {
			t.Fatal("sample at bound+tolerance tripped the watchdog")
		}
	}
	if wd.Engaged() {
		t.Fatal("watchdog engaged without overshoot")
	}

	// Overshoot: the first TripAfter-1 samples arm it, the TripAfter-th
	// engages.
	for i := 0; i < wd.TripAfter-1; i++ {
		if changed, _ := wd.Observe(230); changed {
			t.Fatalf("engaged after only %d overshoot samples", i+1)
		}
	}
	changed, err := wd.Observe(230)
	if err != nil || !changed || !wd.Engaged() {
		t.Fatalf("watchdog did not engage on sample %d: changed=%v err=%v", wd.TripAfter, changed, err)
	}
	if got, _ := target.Limit(DomainPackage); got != fs.Proc {
		t.Fatalf("package clamp = %v, want %v", got, fs.Proc)
	}
	if got, _ := target.Limit(DomainDRAM); got != fs.Mem {
		t.Fatalf("dram clamp = %v, want %v", got, fs.Mem)
	}
	if wd.Engagements != 1 {
		t.Fatalf("Engagements = %d, want 1", wd.Engagements)
	}
	if wd.WorstOvershoot != 230-208 {
		t.Fatalf("WorstOvershoot = %v, want 22", wd.WorstOvershoot)
	}

	// Samples in the guard band (over bound, within tolerance) must not
	// release the clamp.
	for i := 0; i < 10; i++ {
		if changed, _ := wd.Observe(210); changed {
			t.Fatal("guard-band sample released the clamp")
		}
	}
	if !wd.Engaged() {
		t.Fatal("clamp released by guard-band samples")
	}

	// Compliant samples release it after ReleaseAfter.
	for i := 0; i < wd.ReleaseAfter-1; i++ {
		if changed, _ := wd.Observe(190); changed {
			t.Fatalf("released after only %d compliant samples", i+1)
		}
	}
	changed, _ = wd.Observe(190)
	if !changed || wd.Engaged() {
		t.Fatal("watchdog did not release after sustained compliance")
	}
}

func TestWatchdogReengagesAfterRelease(t *testing.T) {
	target := newFakeSetter()
	wd := NewWatchdog(target, 208, 5, FailsafeSplit{Proc: 90, Mem: 80})
	trip := func() {
		for i := 0; i < wd.TripAfter; i++ {
			wd.Observe(240)
		}
	}
	release := func() {
		for i := 0; i < wd.ReleaseAfter; i++ {
			wd.Observe(200)
		}
	}
	trip()
	release()
	trip()
	if wd.Engagements != 2 {
		t.Fatalf("Engagements = %d, want 2", wd.Engagements)
	}
}

func TestWatchdogClampFailureRetriesNextSample(t *testing.T) {
	target := &fakeSetter{failFirst: 100, limits: map[Domain]units.Power{}, enabled: map[Domain]bool{}}
	wd := NewWatchdog(target, 208, 5, FailsafeSplit{Proc: 90, Mem: 80})
	var clampErr error
	for i := 0; i < wd.TripAfter; i++ {
		_, clampErr = wd.Observe(240)
	}
	if clampErr == nil {
		t.Fatal("clamp through a dead actuator reported no error")
	}
	if wd.Engaged() {
		t.Fatal("watchdog claims engaged though the clamp never landed")
	}
	// Actuator comes back: the next overshoot sample re-attempts.
	target.failFirst = 0
	if _, err := wd.Observe(240); err != nil {
		t.Fatalf("re-attempt: %v", err)
	}
	if !wd.Engaged() {
		t.Fatal("watchdog did not engage once the actuator recovered")
	}
}

// Satellite: errors.Is/As assertions on the wrapped rapl error chain.
func TestErrorWrapping(t *testing.T) {
	rf := NewRegisterFile()
	if _, err := rf.Read(0x123); !errors.Is(err, ErrUnimplementedMSR) {
		t.Fatalf("Read(0x123) = %v, want ErrUnimplementedMSR", err)
	}
	if err := rf.Write(MSRRaplPowerUnit, 1); !errors.Is(err, ErrReadOnlyMSR) {
		t.Fatalf("Write(unit reg) = %v, want ErrReadOnlyMSR", err)
	}
	if err := rf.Write(0x123, 1); !errors.Is(err, ErrUnimplementedMSR) {
		t.Fatalf("Write(0x123) = %v, want ErrUnimplementedMSR", err)
	}

	p := hw.IvyBridge()
	fs := NewPowercapFS(NewController(p.CPU, p.DRAM))
	err := fs.Write("intel-rapl:0/constraint_0_power_limit_uw", "not-a-number")
	var numErr *strconv.NumError
	if !errors.As(err, &numErr) {
		t.Fatalf("powercap write error %v does not wrap *strconv.NumError", err)
	}
}

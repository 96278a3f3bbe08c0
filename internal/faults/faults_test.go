package faults

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/rapl"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestParseSpec(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    Spec
		wantErr string
	}{
		{name: "empty is zero spec", in: "", want: Spec{}},
		{name: "blank is zero spec", in: "   ", want: Spec{}},
		{
			name: "full spec",
			in:   "sensor.drop=0.1,sensor.noise=0.05,cap.fail=0.2,cap.stuck=0.1,node.mtbf=400,node.mttr=60,shock.mtbs=900,shock.frac=0.25,shock.len=30",
			want: Spec{
				SensorDrop: 0.1, SensorNoise: 0.05, CapFail: 0.2, CapStuck: 0.1,
				NodeMTBF: 400, NodeMTTR: 60, ShockMTBS: 900, ShockFrac: 0.25, ShockLen: 30,
			},
		},
		{
			name: "spaces tolerated",
			in:   " cap.fail = 0.5 , node.mtbf = 100 ",
			want: Spec{CapFail: 0.5, NodeMTBF: 100},
		},
		{name: "unknown key", in: "cap.explode=1", wantErr: "unknown key"},
		{name: "duplicate key", in: "cap.fail=0.1,cap.fail=0.2", wantErr: "duplicate"},
		{name: "missing value", in: "cap.fail", wantErr: "not key=value"},
		{name: "empty entry", in: "cap.fail=0.1,,node.mtbf=5", wantErr: "empty entry"},
		{name: "bad number", in: "cap.fail=lots", wantErr: "bad value"},
		{name: "probability above one", in: "cap.fail=1.5", wantErr: "outside [0, 1]"},
		{name: "negative mean", in: "node.mtbf=-5", wantErr: "negative"},
		{name: "noise above one", in: "sensor.noise=2", wantErr: "above 1"},
		{name: "mtbf below minimum", in: "node.mtbf=1e-14", wantErr: "node.mtbf=1e-14 below the minimum mean of 0.001 s"},
		{name: "mttr below minimum", in: "node.mtbf=400,node.mttr=1e-9", wantErr: "node.mttr=1e-09 below the minimum mean of 0.001 s"},
		{name: "mtbs below minimum", in: "shock.mtbs=0.000999", wantErr: "shock.mtbs=0.000999 below the minimum mean of 0.001 s"},
		{
			name: "means at the minimum",
			in:   "node.mtbf=0.001,node.mttr=0.001,shock.mtbs=0.001",
			want: Spec{NodeMTBF: 0.001, NodeMTTR: 0.001, ShockMTBS: 0.001},
		},
		{name: "zero means disable", in: "node.mtbf=0,shock.mtbs=0", want: Spec{}},
		{name: "tiny shock length allowed", in: "shock.mtbs=60,shock.len=1e-9", want: Spec{ShockMTBS: 60, ShockLen: 1e-9}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseSpec(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseSpec(%q) err = %v, want containing %q", tc.in, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", tc.in, err)
			}
			if got != tc.want {
				t.Fatalf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{SensorDrop: 0.1},
		{SensorDrop: 0.05, SensorNoise: 0.02, CapFail: 0.125, CapStuck: 0.0625,
			NodeMTBF: 333, NodeMTTR: 45.5, ShockMTBS: 1200, ShockFrac: 0.3, ShockLen: 17},
	}
	for _, sp := range specs {
		s := sp.String()
		back, err := ParseSpec(strings.ReplaceAll(s, "none", ""))
		if err != nil {
			t.Fatalf("re-parse %q: %v", s, err)
		}
		if back != sp {
			t.Fatalf("round trip %+v -> %q -> %+v", sp, s, back)
		}
	}
	if (Spec{}).String() != "none" {
		t.Fatalf("zero spec renders %q, want none", (Spec{}).String())
	}
}

func TestSpecScale(t *testing.T) {
	sp := Spec{SensorDrop: 0.4, CapFail: 0.6, CapStuck: 0.3, NodeMTBF: 100, NodeMTTR: 60,
		ShockMTBS: 500, ShockFrac: 0.25, ShockLen: 30}
	z := sp.Scale(0)
	if !z.Zero() {
		// Severities survive scaling but a zero-frequency spec must be
		// inert: no probabilities, no failure processes.
		if z.SensorDrop != 0 || z.CapFail != 0 || z.CapStuck != 0 || z.NodeMTBF != 0 || z.ShockMTBS != 0 {
			t.Fatalf("Scale(0) left frequencies live: %+v", z)
		}
	}
	d := sp.Scale(2)
	if d.CapFail != 1 {
		t.Fatalf("Scale(2) CapFail = %v, want clamped to 1", d.CapFail)
	}
	if d.SensorDrop != 0.8 || d.NodeMTBF != 50 || d.ShockMTBS != 250 {
		t.Fatalf("Scale(2) = %+v", d)
	}
	if d.NodeMTTR != 60 || d.ShockFrac != 0.25 || d.ShockLen != 30 {
		t.Fatalf("Scale(2) changed severities: %+v", d)
	}
	// A huge factor stops the means at the minimum Validate accepts.
	h := sp.Scale(1e9)
	if h.NodeMTBF != minMeanSeconds || h.ShockMTBS != minMeanSeconds {
		t.Fatalf("Scale(1e9) means = %v, %v, want %v", h.NodeMTBF, h.ShockMTBS, minMeanSeconds)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Scale(1e9) invalid: %v", err)
	}
}

func TestRNGDeterminismAndForking(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	// Forks depend only on (seed, label), not on parent draw position.
	fresh := NewRNG(7).Fork("x")
	drained := NewRNG(7)
	for i := 0; i < 50; i++ {
		drained.Uint64()
	}
	late := drained.Fork("x")
	for i := 0; i < 100; i++ {
		if fresh.Uint64() != late.Uint64() {
			t.Fatal("fork stream depends on parent draw position")
		}
	}
	// Different labels decorrelate.
	x, y := NewRNG(7).Fork("x"), NewRNG(7).Fork("y")
	same := 0
	for i := 0; i < 100; i++ {
		if x.Uint64() == y.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws across labels", same)
	}
	// Float64 in [0,1); Exp of non-positive mean is +Inf.
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", f)
		}
	}
	if e := r.Exp(0); !math.IsInf(e, 1) {
		t.Fatalf("Exp(0) = %v, want +Inf", e)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	spec := Spec{SensorDrop: 0.2, SensorNoise: 0.1, CapFail: 0.3, CapStuck: 0.2,
		NodeMTBF: 300, NodeMTTR: 60, ShockMTBS: 500, ShockFrac: 0.2, ShockLen: 30}
	a, b := NewInjector(spec, 42), NewInjector(spec, 42)
	for i := 0; i < 200; i++ {
		av, aok := a.SensorRead(100)
		bv, bok := b.SensorRead(100)
		if av != bv || aok != bok {
			t.Fatalf("sensor draw %d diverged: (%v,%v) vs (%v,%v)", i, av, aok, bv, bok)
		}
		if a.CapAttempt() != b.CapAttempt() {
			t.Fatalf("cap draw %d diverged", i)
		}
	}
	// Per-node outage schedules are functions of (spec, seed, nodeID)
	// alone: draining other streams must not move them.
	fresh := NewInjector(spec, 42)
	o1 := fresh.NodeOutages("n3", 1e5)
	o2 := a.NodeOutages("n3", 1e5) // a has consumed many sensor/cap draws
	if len(o1) == 0 {
		t.Fatal("no outages over a 1e5 s horizon with MTBF 300")
	}
	if len(o1) != len(o2) {
		t.Fatalf("outage schedule length diverged: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("outage %d diverged: %+v vs %+v", i, o1[i], o2[i])
		}
	}
	// Different nodes get different schedules.
	o3 := fresh.NodeOutages("n4", 1e5)
	if len(o3) == len(o1) {
		identical := true
		for i := range o1 {
			if o1[i] != o3[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("two nodes share an outage schedule")
		}
	}
	// Shocks respect non-overlap and ordering.
	sh := fresh.BudgetShocks(1e5)
	for i := 1; i < len(sh); i++ {
		if sh[i].At < sh[i-1].At+sh[i-1].Duration {
			t.Fatalf("shocks %d and %d overlap", i-1, i)
		}
	}
	// Different seeds give different fault sequences.
	s42, s43 := NewInjector(spec, 42), NewInjector(spec, 43)
	diverged := false
	for i := 0; i < 50; i++ {
		av, aok := s42.SensorRead(100)
		cv, cok := s43.SensorRead(100)
		if av != cv || aok != cok {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 produced identical sensor streams")
	}
}

func TestInjectorNilSafe(t *testing.T) {
	var in *Injector
	if v, ok := in.SensorRead(100); !ok || v != 100 {
		t.Fatalf("nil SensorRead = (%v, %v), want passthrough", v, ok)
	}
	if in.CapAttempt() != CapOK {
		t.Fatal("nil CapAttempt is not CapOK")
	}
	if in.NodeOutages("n", 1e4) != nil {
		t.Fatal("nil injector produced outages")
	}
	if in.BudgetShocks(1e4) != nil {
		t.Fatal("nil injector produced shocks")
	}
}

func TestZeroSpecInjectsNothing(t *testing.T) {
	in := NewInjector(Spec{}, 9)
	for i := 0; i < 100; i++ {
		if v, ok := in.SensorRead(123); !ok || v != 123 {
			t.Fatalf("zero spec perturbed sensor: (%v, %v)", v, ok)
		}
		if in.CapAttempt() != CapOK {
			t.Fatal("zero spec faulted a cap write")
		}
	}
	if in.NodeOutages("n", 1e6) != nil || in.BudgetShocks(1e6) != nil {
		t.Fatal("zero spec scheduled outages or shocks")
	}
}

func TestFaultyControllerFates(t *testing.T) {
	p := hw.IvyBridge()
	ctrl := rapl.NewController(p.CPU, p.DRAM)
	// High rates so all three fates occur quickly.
	in := NewInjector(Spec{CapFail: 0.4, CapStuck: 0.3}, 5)
	fc := NewFaultyController(ctrl, in)
	var sawErr, sawStuck, sawOK bool
	for i := 0; i < 200; i++ {
		before, beforeOK := ctrl.Limit(rapl.DomainPackage)
		want := units.Power(100 + i%40)
		err := fc.SetLimit(rapl.DomainPackage, want)
		after, afterOK := ctrl.Limit(rapl.DomainPackage)
		switch {
		case err != nil:
			sawErr = true
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected failure %v does not wrap ErrInjected", err)
			}
			if after != before || afterOK != beforeOK {
				t.Fatal("failed write still reached the controller")
			}
		case afterOK && (after-want).Watts() < rapl.PowerUnit && (want-after).Watts() < rapl.PowerUnit:
			sawOK = true
		default:
			sawStuck = true
			if after != before || afterOK != beforeOK {
				t.Fatal("stuck write altered the controller")
			}
		}
	}
	if !sawErr || !sawStuck || !sawOK {
		t.Fatalf("fates not all exercised: err=%v stuck=%v ok=%v", sawErr, sawStuck, sawOK)
	}
	if fc.Writes != 200 || fc.Failed == 0 || fc.Stuck == 0 {
		t.Fatalf("counters: %d writes, %d failed, %d stuck", fc.Writes, fc.Failed, fc.Stuck)
	}
}

func TestResilientDefeatsFaultyActuator(t *testing.T) {
	// The intended stacking: retry + readback above the faulty actuator
	// should land virtually every write despite 30% failures and 20%
	// stuck writes per attempt.
	p := hw.IvyBridge()
	ctrl := rapl.NewController(p.CPU, p.DRAM)
	in := NewInjector(Spec{CapFail: 0.3, CapStuck: 0.2}, 11)
	fc := NewFaultyController(ctrl, in)
	r := rapl.NewResilient(fc, rapl.DefaultRetryPolicy(11))
	landed := 0
	for i := 0; i < 100; i++ {
		want := units.Power(80 + i)
		if err := r.SetLimit(rapl.DomainPackage, want); err != nil {
			continue
		}
		got, ok := ctrl.Limit(rapl.DomainPackage)
		if !ok || (got-want).Watts() >= rapl.PowerUnit || (want-got).Watts() >= rapl.PowerUnit {
			t.Fatalf("write %d reported success but limit is %v (want %v)", i, got, want)
		}
		landed++
	}
	// With 5 attempts per write, the per-write failure probability is
	// (0.3+0.2 stuck-and-caught... ) — in practice nearly all land.
	if landed < 95 {
		t.Fatalf("only %d/100 writes landed through the resilient layer", landed)
	}
	stats := r.Stats()
	if stats.Retries == 0 || stats.ReadbackMismatches == 0 {
		t.Fatalf("faults never exercised the retry path: %+v", stats)
	}
}

func runNodeFixture(t *testing.T) (hw.Platform, workload.Workload) {
	t.Helper()
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	return p, w
}

func TestRunNodeFaultFree(t *testing.T) {
	p, w := runNodeFixture(t)
	res, err := RunNode(p, w, 208, 1e12, 250*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkDone < 1e12*(1-1e-9) {
		t.Fatalf("work done %v of 1e12", res.WorkDone)
	}
	if res.Rate <= 0 {
		t.Fatal("no progress")
	}
	if res.WorstOvershoot > 0 {
		t.Fatalf("fault-free overshoot %v", res.WorstOvershoot)
	}
	if res.SensorDrops != 0 || res.WatchdogEngagements != 0 || res.Shocks != 0 {
		t.Fatalf("fault-free run reported faults: %+v", res)
	}
}

func TestRunNodeBudgetInvariantUnderActuatorFaults(t *testing.T) {
	// The acceptance invariant: with failing and stuck cap writes plus a
	// lossy noisy sensor — but a steady bound — the windowed node power
	// never exceeds the bound by more than the documented guard band.
	p, w := runNodeFixture(t)
	spec := Spec{SensorDrop: 0.2, SensorNoise: 0.05, CapFail: 0.3, CapStuck: 0.2}
	in := NewInjector(spec, 17)
	log := &trace.EventLog{}
	res, err := RunNode(p, w, 208, 1e12, 250*time.Millisecond, in, log)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkDone < 1e12*(1-1e-9) {
		t.Fatalf("work done %v of 1e12", res.WorkDone)
	}
	if res.WorstOvershoot > GuardTolerance {
		t.Fatalf("overshoot %v exceeds guard tolerance %v", res.WorstOvershoot, GuardTolerance)
	}
	if res.OvershootTime != 0 {
		t.Fatalf("window average above bound+tolerance for %v", res.OvershootTime)
	}
	if res.CapFailed == 0 && res.CapStuck == 0 {
		t.Fatal("spec injected no actuator faults — test proves nothing")
	}
	if res.SensorDrops == 0 {
		t.Fatal("spec dropped no sensor samples — test proves nothing")
	}
}

func TestRunNodeDeterministicReplay(t *testing.T) {
	p, w := runNodeFixture(t)
	spec := Spec{SensorDrop: 0.1, SensorNoise: 0.05, CapFail: 0.2, CapStuck: 0.1,
		ShockMTBS: 20, ShockFrac: 0.2, ShockLen: 5}
	run := func() (NodeRunResult, string) {
		log := &trace.EventLog{}
		res, err := RunNode(p, w, 208, 1e12, 250*time.Millisecond, NewInjector(spec, 99), log)
		if err != nil {
			t.Fatal(err)
		}
		return res, log.String()
	}
	r1, l1 := run()
	r2, l2 := run()
	if r1 != r2 {
		t.Fatalf("results diverged:\n%+v\n%+v", r1, r2)
	}
	if l1 != l2 {
		t.Fatalf("event logs diverged:\n%s\nvs\n%s", l1, l2)
	}
	// A different seed gives a different fault history.
	log3 := &trace.EventLog{}
	r3, err := RunNode(p, w, 208, 1e12, 250*time.Millisecond, NewInjector(spec, 100), log3)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r3 {
		t.Fatal("seeds 99 and 100 produced identical runs")
	}
}

func TestRunNodeUnderBudgetShocks(t *testing.T) {
	p, w := runNodeFixture(t)
	spec := Spec{ShockMTBS: 10, ShockFrac: 0.25, ShockLen: 5}
	log := &trace.EventLog{}
	res, err := RunNode(p, w, 208, 4e12, 250*time.Millisecond, NewInjector(spec, 3), log)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shocks == 0 {
		t.Fatal("no shocks fired — lengthen the run or shorten MTBS")
	}
	if log.Count("budget-shock") != res.Shocks {
		t.Fatalf("log records %d shocks, result %d", log.Count("budget-shock"), res.Shocks)
	}
	if res.WorkDone < 4e12*(1-1e-9) {
		t.Fatalf("work done %v of 4e12", res.WorkDone)
	}
	// Shocked runs complete but slower than fault-free.
	clean, err := RunNode(p, w, 208, 4e12, 250*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < clean.Elapsed {
		t.Fatalf("shocked run (%v) faster than clean run (%v)", res.Elapsed, clean.Elapsed)
	}
}

func TestRunNodeRejectsBadArgs(t *testing.T) {
	p, w := runNodeFixture(t)
	if _, err := RunNode(p, w, 208, 0, time.Second, nil, nil); err == nil {
		t.Error("zero work accepted")
	}
	if _, err := RunNode(p, w, 208, 1e9, 0, nil, nil); err == nil {
		t.Error("zero step accepted")
	}
	gpu, _ := hw.PlatformByName("titanxp")
	if _, err := RunNode(gpu, w, 208, 1e9, time.Second, nil, nil); err == nil {
		t.Error("GPU platform accepted")
	}
}

package recoord

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/nvgov"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

func mustPlatform(t *testing.T, name string) hw.Platform {
	t.Helper()
	p, err := hw.PlatformByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// budgetGrid mirrors the experiments runner: four points spanning the
// settable range.
func budgetGrid(gpu *hw.GPUSpec) []units.Power {
	var out []units.Power
	for _, frac := range []float64{0.1, 0.35, 0.6, 0.85} {
		out = append(out, gpu.MinCap+units.Power(frac*float64(gpu.MaxCap-gpu.MinCap)))
	}
	return out
}

// TestOnlineNeverWorseThanStatic is the headline property: across every
// phased ML workload, H100-class platform, and budget point, the online
// controller at least matches static COORD, and beats it strictly
// somewhere. The construction makes "never worse" structural — the
// static setting opens the run and stays in the candidate slate — so a
// failure here means the switch logic regressed.
func TestOnlineNeverWorseThanStatic(t *testing.T) {
	strictly := 0
	for _, pn := range []string{"h100", "h200"} {
		p := mustPlatform(t, pn)
		for _, wn := range []string{"llmserve", "llmchat", "llmbatch"} {
			w := mustWorkload(t, wn)
			for _, budget := range budgetGrid(p.GPU) {
				res, err := Run(Config{Platform: p, Workload: w, Budget: budget})
				if err != nil {
					t.Fatalf("%s/%s@%v: %v", pn, wn, budget, err)
				}
				if res.OnlinePerf < res.StaticPerf*(1-1e-9) {
					t.Errorf("%s/%s@%v: online %.6g worse than static %.6g",
						pn, wn, budget, res.OnlinePerf, res.StaticPerf)
				}
				if res.OnlinePerf > res.StaticPerf*(1+1e-6) {
					strictly++
				}
				if res.GovernorPerf <= 0 || res.StaticPerf <= 0 {
					t.Errorf("%s/%s@%v: non-positive baseline (static %.6g, governor %.6g)",
						pn, wn, budget, res.StaticPerf, res.GovernorPerf)
				}
			}
		}
	}
	if strictly == 0 {
		t.Error("online never strictly beat static COORD on any phased pair")
	}
}

// TestDeterministicRepeat pins the byte-identical guarantee the
// experiments artifact relies on: two runs of the same configuration
// produce identical results, down to formatting.
func TestDeterministicRepeat(t *testing.T) {
	p, w := mustPlatform(t, "h100"), mustWorkload(t, "llmbatch")
	budget := 300 * units.Watt
	a, err := Run(Config{Platform: p, Workload: w, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Platform: p, Workload: w, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeat run diverged:\n%+v\nvs\n%+v", a, b)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("repeat run not byte-identical when rendered")
	}
}

// TestBudgetBelowCapFloorTypedRejection: recoord rejects sub-floor
// budgets with the same typed nvgov error as the allocation service —
// not a silent clamp, not an ad-hoc string.
func TestBudgetBelowCapFloorTypedRejection(t *testing.T) {
	p, w := mustPlatform(t, "h100"), mustWorkload(t, "llmserve")
	_, err := Run(Config{Platform: p, Workload: w, Budget: p.GPU.MinCap - 1*units.Watt})
	if !errors.Is(err, nvgov.ErrCapOutOfRange) {
		t.Fatalf("sub-floor budget got %v, want nvgov.ErrCapOutOfRange", err)
	}
	var cre *nvgov.CapRangeError
	if !errors.As(err, &cre) {
		t.Fatalf("error %v does not unwrap to *nvgov.CapRangeError", err)
	}
	if cre.Min != p.GPU.MinCap || cre.Max != p.GPU.MaxCap {
		t.Fatalf("CapRangeError range [%v, %v], want [%v, %v]", cre.Min, cre.Max, p.GPU.MinCap, p.GPU.MaxCap)
	}
	// The floor itself is settable and must run.
	if _, err := Run(Config{Platform: p, Workload: w, Budget: p.GPU.MinCap}); err != nil {
		t.Fatalf("budget at the exact floor rejected: %v", err)
	}
}

func TestConfigRejections(t *testing.T) {
	h100, llm := mustPlatform(t, "h100"), mustWorkload(t, "llmserve")
	ivy, stream := mustPlatform(t, "ivybridge"), mustWorkload(t, "stream")
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"cpu-platform", Config{Platform: ivy, Workload: llm, Budget: 300 * units.Watt}, "not a GPU platform"},
		{"cpu-workload", Config{Platform: h100, Workload: stream, Budget: 300 * units.Watt}, "not a GPU workload"},
		{"zero-budget", Config{Platform: h100, Workload: llm}, "positive power bound"},
		{"negative-budget", Config{Platform: h100, Workload: llm, Budget: -5 * units.Watt}, "positive power bound"},
		{"invalid-workload", Config{Platform: h100, Workload: workload.Workload{Name: "empty", Kind: hw.KindGPU}, Budget: 300 * units.Watt}, "recoord:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestSinglePhaseStaysStatic: with one phase there is no shift to
// detect, so the controller never re-coordinates and exactly matches
// static COORD.
func TestSinglePhaseStaysStatic(t *testing.T) {
	p, w := mustPlatform(t, "h100"), mustWorkload(t, "sgemm")
	res, err := Run(Config{Platform: p, Workload: w, Budget: 400 * units.Watt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoordinations != 0 || res.Switches != 0 {
		t.Fatalf("single-phase run re-coordinated: %d recoords, %d switches",
			res.Recoordinations, res.Switches)
	}
	if rel := res.OnlinePerf/res.StaticPerf - 1; rel > 1e-12 || rel < -1e-12 {
		t.Fatalf("single-phase online %.12g != static %.12g", res.OnlinePerf, res.StaticPerf)
	}
	for _, v := range res.Visits {
		if v.Setting != res.StaticSetting {
			t.Fatalf("visit %q left the static setting: %+v", v.Phase, v.Setting)
		}
	}
}

// TestTelemetryInstruments checks the controller's instruments land in
// the registry, that the counters agree with the result, and that the
// gauges hold the last observed phase state.
func TestTelemetryInstruments(t *testing.T) {
	reg := telemetry.New()
	p, w := mustPlatform(t, "h200"), mustWorkload(t, "llmchat")
	res, err := Run(Config{Platform: p, Workload: w, Budget: 350 * units.Watt, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoordinations == 0 || res.Switches == 0 {
		t.Fatalf("phased run never re-coordinated: %+v", res)
	}
	snap := reg.Snapshot()
	got := map[string]float64{}
	for _, pt := range snap.Points {
		got[pt.Name] = pt.Value
	}
	for name, want := range map[string]float64{
		"recoord_recoordinations_total": float64(res.Recoordinations),
		"recoord_switches_total":        float64(res.Switches),
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v (snapshot %v)", name, got[name], want, got)
		}
	}
	for _, name := range []string{"recoord_activity", "recoord_stall_frac"} {
		v, ok := got[name]
		if !ok {
			t.Errorf("gauge %s missing from registry snapshot", name)
		} else if !(v > 0 && v <= 1) {
			t.Errorf("gauge %s = %v, want a fraction in (0, 1]", name, v)
		}
	}
}

// TestVisitsTimeline sanity-checks the reported phase timeline: trace
// order, positive dwell, re-coordination lag bounded by the visit, and
// the per-visit static baseline consistent with the overall number.
func TestVisitsTimeline(t *testing.T) {
	p, w := mustPlatform(t, "h100"), mustWorkload(t, "llmserve")
	cfg := Config{Platform: p, Workload: w, Budget: 320 * units.Watt, Rounds: 2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantVisits := cfg.Rounds * len(w.Phases)
	if len(res.Visits) != wantVisits {
		t.Fatalf("got %d visits, want %d", len(res.Visits), wantVisits)
	}
	var onlineTime, staticTime float64
	var ticks int
	for i, v := range res.Visits {
		if v.Phase != w.Phases[i%len(w.Phases)].Name {
			t.Fatalf("visit %d is phase %q, want %q", i, v.Phase, w.Phases[i%len(w.Phases)].Name)
		}
		if v.Ticks <= 0 || v.LagTicks < 0 || v.LagTicks > v.Ticks {
			t.Fatalf("visit %d has malformed dwell: %+v", i, v)
		}
		if v.Recoordinated == (v.LagTicks == 0) {
			t.Fatalf("visit %d lag/recoordination mismatch: %+v", i, v)
		}
		onlineTime += v.OnlinePerf * float64(v.Ticks)
		staticTime += v.StaticPerf * float64(v.Ticks)
		ticks += v.Ticks
	}
	if gap := res.OnlinePerf - onlineTime/float64(ticks); gap > 1e-9 || gap < -1e-9 {
		t.Fatalf("overall online perf %.9g inconsistent with visits (%.9g)",
			res.OnlinePerf, onlineTime/float64(ticks))
	}
	if gap := res.StaticPerf - staticTime/float64(ticks); gap > 1e-9 || gap < -1e-9 {
		t.Fatalf("overall static perf %.9g inconsistent with visits (%.9g)",
			res.StaticPerf, staticTime/float64(ticks))
	}
}

func TestGainZeroOnEmptyResult(t *testing.T) {
	var r Result
	if g := r.Gain(); g != 0 {
		t.Fatalf("zero result gain = %v, want 0", g)
	}
}

// TestRunEvaluatesOncePerVisitAndSetting pins that the tick loop does
// not re-ask the engine for a steady state it already has: a run on a
// fresh engine issues fewer lookups than it has ticks, which it could
// not if every tick evaluated its phase.
func TestRunEvaluatesOncePerVisitAndSetting(t *testing.T) {
	eng := evalpool.New(evalpool.Options{})
	cfg := Config{Platform: mustPlatform(t, "h100"), Workload: mustWorkload(t, "llmbatch"),
		Budget: 300, Engine: eng}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	ticks := DefaultRounds * DefaultTicksPerRound
	if lookups := st.Hits + st.Misses; lookups >= uint64(ticks) {
		t.Errorf("run made %d engine lookups for %d ticks (%d visits); want fewer than one per tick",
			lookups, ticks, len(res.Visits))
	}
}

// BenchmarkRun times one controller run on a warm engine, cycling the
// phased LLM workloads on the H100-class cards across the settable
// budget range.
func BenchmarkRun(b *testing.B) {
	var cfgs []Config
	for _, pn := range []string{"h100", "h200"} {
		p, err := hw.PlatformByName(pn)
		if err != nil {
			b.Fatal(err)
		}
		for _, wn := range []string{"llmserve", "llmchat", "llmbatch"} {
			w, err := workload.ByName(wn)
			if err != nil {
				b.Fatal(err)
			}
			for _, budget := range []units.Power{220, 300, 450, 650} {
				cfgs = append(cfgs, Config{Platform: p, Workload: w, Budget: budget})
			}
		}
	}
	for _, cfg := range cfgs {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfgs[i%len(cfgs)]); err != nil {
			b.Fatal(err)
		}
	}
}

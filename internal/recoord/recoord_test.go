package recoord

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/nvgov"
	"repro/internal/profile"
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

// TestRunEvaluatesOncePerVisitAndSetting pins the slate table: with
// the profile already warm on the run's engine, a cold run at a budget
// simulates every phase at every candidate and at the governor's point
// exactly once, reading the profile from the memo and missing only the
// slate; a repeat run at the same budget reads both back and simulates
// nothing. The run's engine is not the default one: the profile and
// the slate both come from the engine in its Config.
func TestRunEvaluatesOncePerVisitAndSetting(t *testing.T) {
	eng := evalpool.New(evalpool.Options{})
	p, w := mustPlatform(t, "h100"), mustWorkload(t, "llmbatch")
	if _, err := profile.ProfileGPUOn(eng, p, w); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Platform: p, Workload: w, Budget: 300, Engine: eng}
	candidates := len(p.GPU.Mem.Clocks()) + 1 // every memory clock, then static
	want := uint64(len(w.Phases) * (candidates + 1))
	for _, pass := range []struct {
		name         string
		sims         uint64
		hits, misses uint64
	}{{"cold", want, 1, 1}, {"repeat", 0, 2, 0}} {
		before := eng.Stats()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		after := eng.Stats()
		if sims, reqs := after.SimRuns-before.SimRuns, after.Requests-before.Requests; sims != pass.sims || reqs != pass.sims {
			t.Errorf("%s run: %d simulator calls over %d requests, want %d of each",
				pass.name, sims, reqs, pass.sims)
		}
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != pass.hits || misses != pass.misses {
			t.Errorf("%s run: %d memo hits and %d misses, want %d and %d",
				pass.name, hits, misses, pass.hits, pass.misses)
		}
	}
}

// TestRunSerialParallelContract: the serial reference engine defines
// the answer; a 4-worker cached engine must return it exactly, on the
// cold run that simulates the slate and on the warm one that reads it
// back. The budgets run from the cards' cap floor to above MaxCap.
func TestRunSerialParallelContract(t *testing.T) {
	par := evalpool.New(evalpool.Options{Workers: 4})
	for _, pn := range []string{"h100", "h200"} {
		p := mustPlatform(t, pn)
		for _, wn := range []string{"llmserve", "llmchat", "llmbatch"} {
			w := mustWorkload(t, wn)
			for _, budget := range []units.Power{200, 237.5, 450, 700, 750} {
				cfg := Config{Platform: p, Workload: w, Budget: budget, Engine: evalpool.Serial()}
				want, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s@%v serial: %v", pn, wn, budget, err)
				}
				cfg.Engine = par
				for _, pass := range []string{"cold", "warm"} {
					got, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s/%s@%v %s: %v", pn, wn, budget, pass, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s@%v %s run differs from serial:\n%+v\nvs\n%+v",
							pn, wn, budget, pass, got, want)
					}
				}
			}
		}
	}
}

// TestSlateKeyedByAggregateContent: the slate memo is keyed by the
// whole workload's content. Two phase_spec mixes with the same prefill
// phase get different static splits, so the prefill rows of their
// slates differ; two variants named alike differ in one decode
// parameter. On one cached engine, each run must equal its serial
// reference whatever ran before it.
func TestSlateKeyedByAggregateContent(t *testing.T) {
	p := mustPlatform(t, "h100")
	spec := func(s string) workload.Workload {
		t.Helper()
		w, err := workload.ParsePhaseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// The mixes differ only in the phase weights: with the description
	// copied too, phase 0 alone is the same problem for both.
	mixA, mixB := spec("prefill=1,decode=1"), spec("prefill=9,decode=1")
	mixB.Desc = mixA.Desc
	llm := mustWorkload(t, "llmbatch")
	variant := llm.Clone()
	variant.Phases[1].BytesPerUnit *= 1.5
	const budget = 400 * units.Watt
	for _, tc := range []struct {
		name string
		a, b workload.Workload
	}{
		{"shared-phase-0", mixA, mixB},
		{"same-name", llm, variant},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.a.Name != tc.b.Name {
				t.Fatalf("workloads named %q and %q; the case needs one name", tc.a.Name, tc.b.Name)
			}
			eng := evalpool.New(evalpool.Options{})
			var static []Setting
			for _, w := range []workload.Workload{tc.a, tc.b} {
				cfg := Config{Platform: p, Workload: w, Budget: budget, Engine: evalpool.Serial()}
				want, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Engine = eng
				got, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run on a shared engine differs from serial:\n%+v\nvs\n%+v", got, want)
				}
				static = append(static, got.StaticSetting)
			}
			if tc.name == "shared-phase-0" && static[0] == static[1] {
				t.Fatalf("both mixes got static split %+v; the case needs them to differ", static[0])
			}
		})
	}
}

// TestSlateMemoBounded: the slate memo counts each table's points
// against CacheSize. 200 runs at distinct budgets on an engine bounded
// at 256 keep its memo at or under 256 points, and every run
// still equals its serial reference.
func TestSlateMemoBounded(t *testing.T) {
	const size = 256
	eng := evalpool.New(evalpool.Options{CacheSize: size})
	p, w := mustPlatform(t, "h200"), mustWorkload(t, "llmchat")
	for k := 0; k < 200; k++ {
		cfg := Config{Platform: p, Workload: w, Budget: units.Power(200 + 2.5*float64(k)), Engine: evalpool.Serial()}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine = eng
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run at %v differs from serial:\n%+v\nvs\n%+v", cfg.Budget, got, want)
		}
		if d := eng.Stats().Entries; d > size {
			t.Fatalf("after run %d the memo holds %d points, bound %d", k, d, size)
		}
	}
}

// benchConfigs cycles the phased LLM workloads on the H100-class cards
// across the settable budget range.
func benchConfigs(b *testing.B) []Config {
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
	return cfgs
}

// BenchmarkRun times one controller run whose slate table is already
// memoized on the engine.
func BenchmarkRun(b *testing.B) {
	cfgs := benchConfigs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfgs[i%len(cfgs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCold times one controller run at a budget no earlier run
// on its engine used, so every run simulates its slate: the traffic of
// a planner's budget sweep. Profiles are warm.
func BenchmarkRunCold(b *testing.B) {
	cfgs := benchConfigs(b)
	eng := evalpool.New(evalpool.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cfgs[i%len(cfgs)]
		// Golden-ratio steps never repeat a budget in the settable range.
		cfg.Budget = units.Power(200 + 500*math.Mod(float64(i)*0.6180339887498949, 1))
		cfg.Engine = eng
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

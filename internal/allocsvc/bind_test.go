package allocsvc

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/coord"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/workload"
)

// rendered is an answer as the wire sees it: the response's JSON, or
// the error's text.
func rendered(t *testing.T, v any, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	b, jerr := json.Marshal(v)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return string(b)
}

// contractBudgets covers a pair's budget axis: a grid from well below
// the first breakpoint to well above the last, every breakpoint and the
// GPU cap floor ±1 ulp, a too-small budget, and invalid values.
func contractBudgets(p hw.Platform, wl workload.Workload) []float64 {
	var breaks []float64
	switch p.Kind {
	case hw.KindCPU:
		if prof, err := profile.ProfileCPU(p, wl); err == nil {
			for _, b := range coord.CPUBreakpoints(prof) {
				breaks = append(breaks, b.Watts())
			}
		}
	case hw.KindGPU:
		breaks = append(breaks, p.GPU.MinCap.Watts())
		if prof, err := profile.ProfileGPU(p, wl); err == nil {
			for _, b := range coord.GPUBreakpoints(prof, coord.DefaultGamma) {
				breaks = append(breaks, b.Watts())
			}
		}
	}
	bs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5, 0, 1, 5e-324}
	lo, hi := 20.0, 500.0
	if len(breaks) > 0 {
		lo, hi = breaks[0], breaks[0]
		for _, b := range breaks {
			lo, hi = math.Min(lo, b), math.Max(hi, b)
		}
		lo, hi = lo/2, hi*1.25
	}
	const n = 48
	for i := 0; i <= n; i++ {
		bs = append(bs, lo+(hi-lo)*float64(i)/n)
	}
	for _, b := range breaks {
		bs = append(bs, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
	}
	return bs
}

// TestBoundPathMatchesCompute: on every catalog (platform, workload)
// pair — kinds mismatched included — and an unknown name of each, a
// pair bound once and computed at many budgets answers exactly what
// ComputeCoord and ComputePlan answer request by request: the same
// JSON bytes, or the same error text, under every strategy and an
// unknown one.
func TestBoundPathMatchesCompute(t *testing.T) {
	strategies := []string{"", "nosuch"}
	for _, st := range coord.CPUStrategies() {
		strategies = append(strategies, st.Name)
	}
	for _, st := range coord.GPUStrategies() {
		strategies = append(strategies, st.Name)
	}
	platforms := []string{"nosuch"}
	for _, p := range hw.AllPlatforms() {
		platforms = append(platforms, p.Name)
	}
	wls := []string{"nosuch"}
	for _, w := range workload.AllWorkloads() {
		wls = append(wls, w.Name)
	}
	checked := 0
	for _, pname := range platforms {
		for _, wname := range wls {
			budgets := []float64{math.NaN(), -5, 100}
			p, perr := hw.PlatformByName(pname)
			wl, werr := workload.ByName(wname)
			if perr == nil && werr == nil && p.Kind == wl.Kind {
				budgets = contractBudgets(p, wl)
			}

			coordPair, coordErr := BindCoord(pname, wname)
			planPair, planErr := BindPlan(pname, wname)
			for _, b := range budgets {
				for _, st := range strategies {
					want, err := ComputeCoord(CoordRequest{Platform: pname, Workload: wname, Budget: b, Strategy: st})
					wantR := rendered(t, want, err)
					var gotR string
					switch {
					case coordErr == nil:
						got, err := coordPair.Coord(st, b)
						gotR = rendered(t, got, err)
					case checkBudget(b) != nil:
						// ComputeCoord refuses the budget before it binds.
						continue
					default:
						gotR = rendered(t, nil, coordErr)
					}
					if gotR != wantR {
						t.Fatalf("%s/%s %q at %v: bound path\n  %s\nComputeCoord\n  %s", pname, wname, st, b, gotR, wantR)
					}
					checked++
				}

				want, err := ComputePlan(PlanRequest{Platform: pname, Workload: wname, Budget: b})
				wantR := rendered(t, want, err)
				var gotR string
				switch {
				case planErr == nil:
					got, err := planPair.Plan(b)
					gotR = rendered(t, got, err)
				case checkBudget(b) != nil:
					continue
				default:
					gotR = rendered(t, nil, planErr)
				}
				if gotR != wantR {
					t.Fatalf("%s/%s plan at %v: bound path\n  %s\nComputePlan\n  %s", pname, wname, b, gotR, wantR)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no request checked")
	}
}

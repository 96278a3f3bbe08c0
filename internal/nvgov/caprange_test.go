package nvgov

import (
	"errors"
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/units"
)

// TestRegressCapBelowFloorTypedRejection is the satellite-1 regression:
// a requested power cap below the card's settable floor must surface a
// typed rejection (errors.Is ErrCapOutOfRange, errors.As
// *CapRangeError), not a silent clamp. On H100-class cards the floor is
// 200 W, so budgets coordination can legitimately produce are
// unenforceable and the caller has to find out.
func TestRegressCapBelowFloorTypedRejection(t *testing.T) {
	for _, p := range []hw.Platform{hw.H100(), hw.H200(), hw.TitanXP(), hw.TitanV()} {
		gpu := p.GPU
		g := New(gpu)
		req := gpu.MinCap / 2
		err := g.SetPowerCap(req)
		if err == nil {
			t.Fatalf("%s: SetPowerCap(%v) below floor %v accepted", p.Name, req, gpu.MinCap)
		}
		if !errors.Is(err, ErrCapOutOfRange) {
			t.Fatalf("%s: error %v does not match ErrCapOutOfRange", p.Name, err)
		}
		var cre *CapRangeError
		if !errors.As(err, &cre) {
			t.Fatalf("%s: error %T is not a *CapRangeError", p.Name, err)
		}
		if cre.Cap != req || cre.Min != gpu.MinCap || cre.Max != gpu.MaxCap {
			t.Fatalf("%s: CapRangeError fields = %+v, want cap %v range [%v, %v]",
				p.Name, cre, req, gpu.MinCap, gpu.MaxCap)
		}
		if got := g.Settings().PowerCap; got != gpu.TDP {
			t.Fatalf("%s: rejected cap mutated settings: PowerCap = %v, want untouched default %v",
				p.Name, got, gpu.TDP)
		}
	}
}

// ulpBelow / ulpAbove step a power value by exactly one float64 ulp.
func ulpBelow(p units.Power) units.Power {
	return units.Power(math.Nextafter(float64(p), math.Inf(-1)))
}

func ulpAbove(p units.Power) units.Power {
	return units.Power(math.Nextafter(float64(p), math.Inf(1)))
}

// TestRegressCapRangeEdgesOneUlp probes both edges of the settable
// range at ±1 ulp on every GPU platform: the exact edges and the
// interior-adjacent values must be accepted, the first representable
// value outside each edge must be rejected with the typed error.
func TestRegressCapRangeEdgesOneUlp(t *testing.T) {
	for _, p := range hw.AllPlatforms() {
		if p.Kind != hw.KindGPU {
			continue
		}
		gpu := p.GPU
		cases := []struct {
			name string
			cap  units.Power
			ok   bool
		}{
			{"min", gpu.MinCap, true},
			{"min+1ulp", ulpAbove(gpu.MinCap), true},
			{"min-1ulp", ulpBelow(gpu.MinCap), false},
			{"max", gpu.MaxCap, true},
			{"max-1ulp", ulpBelow(gpu.MaxCap), true},
			{"max+1ulp", ulpAbove(gpu.MaxCap), false},
		}
		for _, tc := range cases {
			g := New(gpu)
			err := g.SetPowerCap(tc.cap)
			if tc.ok && err != nil {
				t.Errorf("%s/%s: SetPowerCap(%v) = %v, want accept", p.Name, tc.name, tc.cap, err)
			}
			if !tc.ok {
				if err == nil {
					t.Errorf("%s/%s: SetPowerCap(%v) accepted, want typed rejection", p.Name, tc.name, tc.cap)
				} else if !errors.Is(err, ErrCapOutOfRange) {
					t.Errorf("%s/%s: error %v does not match ErrCapOutOfRange", p.Name, tc.name, err)
				}
			}
			if cerr := CheckCap(gpu, tc.cap); (cerr == nil) != tc.ok {
				t.Errorf("%s/%s: CheckCap disagrees with SetPowerCap: %v", p.Name, tc.name, cerr)
			}
		}
	}
}

// TestCheckCapRejectsNaN: a NaN cap is outside every settable range,
// typed like any other out-of-range cap, and SetPowerCap leaves the
// settings alone.
func TestCheckCapRejectsNaN(t *testing.T) {
	for _, p := range hw.AllPlatforms() {
		if p.Kind != hw.KindGPU {
			continue
		}
		nan := units.Power(math.NaN())
		err := CheckCap(p.GPU, nan)
		var cre *CapRangeError
		if !errors.Is(err, ErrCapOutOfRange) || !errors.As(err, &cre) {
			t.Fatalf("%s: CheckCap(NaN) = %v, want a *CapRangeError", p.Name, err)
		}
		g := New(p.GPU)
		if err := g.SetPowerCap(nan); !errors.Is(err, ErrCapOutOfRange) {
			t.Fatalf("%s: SetPowerCap(NaN) = %v", p.Name, err)
		}
		if got := g.Settings().PowerCap; got != p.GPU.TDP {
			t.Fatalf("%s: rejected NaN cap set PowerCap to %v", p.Name, got)
		}
	}
}

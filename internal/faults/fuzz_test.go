package faults

import (
	"strings"
	"testing"
)

func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"",
		"none",
		"sensor.drop=0.1",
		"sensor.drop=0.1,sensor.noise=0.05,cap.fail=0.2,cap.stuck=0.1",
		"node.mtbf=400,node.mttr=60",
		"shock.mtbs=900,shock.frac=0.25,shock.len=30",
		"cap.fail=1.5",
		"cap.fail=-1",
		"cap.fail=",
		"=0.5",
		"cap.fail=0.1,cap.fail=0.2",
		"cap.fail=0.1,,",
		"sensor.noise=1e-3",
		"node.mtbf=1e300",
		"node.mtbf=1e-14",
		"node.mtbf=400,node.mttr=1e-9",
		"shock.mtbs=0.000999,shock.frac=0.5,shock.len=1",
		"node.mtbf=0.001,node.mttr=0.001,shock.mtbs=0.001",
		"cap.fail=NaN",
		"cap.fail=Inf",
		"  cap.fail = 0.5  ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		// Accepted specs must validate, render, and round-trip exactly.
		if verr := sp.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec that fails Validate: %v", s, verr)
		}
		rendered := sp.String()
		if rendered == "none" {
			if !sp.Zero() {
				t.Fatalf("non-zero spec %+v rendered as none", sp)
			}
			return
		}
		back, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", rendered, err)
		}
		if back != sp {
			t.Fatalf("round trip %q -> %+v -> %q -> %+v", s, sp, rendered, back)
		}
		// Scaling an accepted spec must stay valid.
		for _, f := range []float64{0, 0.5, 2, 1e6} {
			if verr := sp.Scale(f).Validate(); verr != nil {
				t.Fatalf("Scale(%v) of %q invalid: %v", f, rendered, verr)
			}
		}
		// The injector must construct without panicking.
		_ = NewInjector(sp, 1)
		_ = strings.Count(rendered, ",")
	})
}

package des

import "testing"

// FuzzParseArrivalSpec asserts the parser's contract on arbitrary
// input: accepted specs validate, render canonically, and round-trip
// through String exactly; everything else errors instead of panicking.
// Accepted specs generate the same trace as the original thinning loop.
func FuzzParseArrivalSpec(f *testing.F) {
	seeds := []string{
		"",
		"none",
		"rate=2",
		"rate=2,burst=1.5",
		"rate=0.05,burst=1.5,diurnal=0.4,period=900,units=2e12,spread=0.5",
		"burst=3,rate=1",
		"rate=1e300",
		"rate=-1",
		"rate=NaN",
		"rate=Inf",
		"diurnal=1.5",
		"spread=1",
		"rate=1,rate=2",
		"rate=",
		"=2",
		"rate=1,,",
		"  rate = 2  ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseArrivalSpec(s)
		if err != nil {
			return
		}
		if verr := sp.Validate(); verr != nil {
			t.Fatalf("ParseArrivalSpec(%q) accepted a spec that fails Validate: %v", s, verr)
		}
		rendered := sp.String()
		if rendered == "none" {
			if sp != (ArrivalSpec{}) {
				t.Fatalf("non-zero spec %+v rendered as none", sp)
			}
			return
		}
		back, err := ParseArrivalSpec(rendered)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", rendered, err)
		}
		if back != sp {
			t.Fatalf("round trip %q -> %+v -> %q -> %+v", s, sp, rendered, back)
		}
		if again := back.String(); again != rendered {
			t.Fatalf("String not idempotent: %q vs %q", rendered, again)
		}
		// Accepted specs must generate a bounded, deterministic trace
		// without panicking.
		a := generateArrivals(sp, 1, 10, 100)
		b := generateArrivals(sp, 1, 10, 100)
		if len(a) != len(b) {
			t.Fatalf("generateArrivals not deterministic: %d vs %d jobs", len(a), len(b))
		}
		if len(a) > 100 {
			t.Fatalf("generateArrivals ignored maxJobs: %d", len(a))
		}
		// The trough shortcut must not move a bit of the trace.
		if diff := sameArrivals(a, thinningArrivals(sp, 1, 10, 100)); diff != "" {
			t.Fatalf("spec %v: generateArrivals differs from the thinning loop: %s", sp, diff)
		}
	})
}

package experiments

import (
	"testing"

	"repro/internal/evalpool"
)

// TestEngineGoldenOutput is the engine's acceptance gate: regenerating
// paper artifacts through the parallel, memoized evaluation engine must
// produce byte-identical rendered text, CSV, and SVG output to the
// serial, uncached reference path — cold memo and warm — and the warm
// pass must read memoized derivations back.
func TestEngineGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates several figures; skipped with -short")
	}
	// fig9 drives the COORD comparison (profile + heuristic + sweep per
	// strategy), extending the identity gate to the coordination path.
	ids := []string{"fig1", "fig2", "fig7", "fig9", "table1"}

	prev := evalpool.SetDefault(evalpool.Serial())
	defer evalpool.SetDefault(prev)

	type artifact struct {
		text string
		csv  []string
		svg  []string
	}
	capture := func(t *testing.T) map[string]artifact {
		t.Helper()
		got := make(map[string]artifact, len(ids))
		for _, id := range ids {
			r, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			out, err := r.Run()
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			a := artifact{text: out.Render()}
			for _, tb := range out.Tables {
				a.csv = append(a.csv, tb.CSV())
			}
			for _, fig := range out.Figures {
				a.svg = append(a.svg, fig.SVG())
			}
			got[id] = a
		}
		return got
	}

	golden := capture(t)

	evalpool.SetDefault(evalpool.New(evalpool.Options{Workers: 8}))
	var warmHits uint64
	for pass, label := range []string{"cold memo", "warm memo"} {
		before := evalpool.Default().Stats().Hits
		got := capture(t)
		warmHits = evalpool.Default().Stats().Hits - before
		for _, id := range ids {
			g, p := golden[id], got[id]
			if p.text != g.text {
				t.Errorf("%s (%s, pass %d): rendered text differs from serial path", id, label, pass)
			}
			if len(p.csv) != len(g.csv) {
				t.Fatalf("%s (%s): table count %d != %d", id, label, len(p.csv), len(g.csv))
			}
			for i := range g.csv {
				if p.csv[i] != g.csv[i] {
					t.Errorf("%s (%s): CSV table %d differs from serial path", id, label, i)
				}
			}
			if len(p.svg) != len(g.svg) {
				t.Fatalf("%s (%s): figure count %d != %d", id, label, len(p.svg), len(g.svg))
			}
			for i := range g.svg {
				if p.svg[i] != g.svg[i] {
					t.Errorf("%s (%s): SVG figure %d differs from serial path", id, label, i)
				}
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	if warmHits == 0 {
		t.Error("second parallel pass recorded no memo hits; memoization is not engaged")
	}
}

// TestRunAllMatchesSequential verifies the concurrent artifact driver
// returns outputs in runner order with content identical to direct
// sequential invocation.
func TestRunAllMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates several figures; skipped with -short")
	}
	var runners []Runner
	for _, id := range []string{"table2", "table3", "fig7"} {
		r, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		runners = append(runners, r)
	}
	want := make([]string, len(runners))
	for i, r := range runners {
		out, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out.Render()
	}
	results := RunAll(runners, 3)
	if len(results) != len(runners) {
		t.Fatalf("RunAll returned %d results, want %d", len(results), len(runners))
	}
	for i, rr := range results {
		if rr.Err != nil {
			t.Fatalf("%s: %v", rr.Runner.ID, rr.Err)
		}
		if rr.Runner.ID != runners[i].ID {
			t.Fatalf("slot %d holds %s, want %s (order must be preserved)", i, rr.Runner.ID, runners[i].ID)
		}
		if rr.Output.Render() != want[i] {
			t.Errorf("%s: concurrent output differs from sequential", rr.Runner.ID)
		}
	}
}

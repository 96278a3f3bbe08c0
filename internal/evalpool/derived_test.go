package evalpool

import (
	"errors"
	"testing"
)

// TestDeriveMemoizesByContent: a derived result is computed once per
// (content, kind, param) on an engine. Independently built problems
// with equal content share it; another kind, another param, another
// engine or changed content compute afresh.
func TestDeriveMemoizesByContent(t *testing.T) {
	e := New(Options{Workers: 1})
	calls := 0
	derive := func(e *Engine, pr Problem, kind string, param float64) int {
		t.Helper()
		v, err := Derive(e.Bind(pr), kind, param, func() (int, error) {
			calls++
			return calls, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a := derive(e, cpuProblem(t, "ivybridge", "stream"), "k", 1)
	if b := derive(e, cpuProblem(t, "ivybridge", "stream"), "k", 1); b != a || calls != 1 {
		t.Fatalf("equal content re-derived: got %d after %d calls, want %d after 1", b, calls, a)
	}
	derive(e, cpuProblem(t, "ivybridge", "stream"), "other", 1)
	derive(e, cpuProblem(t, "ivybridge", "stream"), "k", 1.02)
	variant := cpuProblem(t, "ivybridge", "stream")
	variant.Workload.Phases[0].Overlap++
	derive(e, variant, "k", 1)
	derive(New(Options{}), cpuProblem(t, "ivybridge", "stream"), "k", 1)
	if calls != 5 {
		t.Fatalf("%d derivations, want 5 (kind, param, content and engine each miss)", calls)
	}
}

// TestDeriveSkipsErrorsAndDisabledCache: an error is returned and never
// stored, and an engine without a cache derives on every call.
func TestDeriveSkipsErrorsAndDisabledCache(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		e    *Engine
		fail bool
	}{
		{"error", New(Options{}), true},
		{"serial", Serial(), false},
	} {
		b := tc.e.Bind(cpuProblem(t, "ivybridge", "dgemm"))
		calls := 0
		for i := 0; i < 3; i++ {
			_, err := Derive(b, "k", 0, func() (int, error) {
				calls++
				if tc.fail {
					return 0, boom
				}
				return 7, nil
			})
			if tc.fail != (err != nil) {
				t.Fatalf("%s: err = %v", tc.name, err)
			}
		}
		if calls != 3 {
			t.Errorf("%s: %d derivations over 3 calls, want 3", tc.name, calls)
		}
	}
}

// TestDeriveBoundedByCacheSize: the memo holds at most
// CacheSize points of weight, evicting lighter and heavier entries
// alike to make room, and never stores a value heavier than the whole
// bound.
func TestDeriveBoundedByCacheSize(t *testing.T) {
	e := New(Options{CacheSize: 4})
	b := e.Bind(cpuProblem(t, "ivybridge", "dgemm"))
	calls := 0
	derive := func(param float64, weight int) {
		t.Helper()
		if _, err := DeriveWeighted(b, "k", param, weight, func() (int, error) {
			calls++
			return calls, nil
		}); err != nil {
			t.Fatal(err)
		}
		if w := e.Stats().Entries; w > 4 {
			t.Fatalf("memo weighs %d points with CacheSize 4", w)
		}
	}
	for i := 0; i < 5; i++ {
		derive(float64(i), 1)
	}
	derive(10, 3)
	derive(11, 3)
	before := calls
	derive(11, 3)
	if calls != before {
		t.Fatal("the entry just stored was evicted or never stored")
	}
	calls = 0
	derive(20, 5)
	derive(20, 5)
	if calls != 2 {
		t.Fatalf("a value heavier than the bound was derived %d times over 2 calls, want 2 (never stored)", calls)
	}
}

package evalpool

import "testing"

// deriveInt stores v under (kind, param) at the given weight and
// reports whether it was derived afresh.
func deriveInt(t *testing.T, b *Bound, kind string, param float64, weight, v int) (got int, fresh bool) {
	t.Helper()
	got, err := DeriveWeighted(b, kind, param, weight, func() (int, error) {
		fresh = true
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, fresh
}

// TestCacheCapacityNeverExceedsRequested: the memo's capacity is
// exactly the requested CacheSize in points, for small bounds as for
// the default, so the -cache-size knob means what it says.
func TestCacheCapacityNeverExceedsRequested(t *testing.T) {
	for total := 1; total <= 64; total++ {
		if got := New(Options{CacheSize: total}).Stats().Capacity; got != total {
			t.Errorf("CacheSize %d: Stats().Capacity = %d", total, got)
		}
	}
	if got := New(Options{}).Stats().Capacity; got != DefaultCacheSize {
		t.Errorf("default engine: Stats().Capacity = %d, want %d", got, DefaultCacheSize)
	}
}

// TestCacheBoundEnforcedUnderInsertion floods a small memo with
// distinct keys of mixed weights and checks its weight never exceeds
// the bound and that evictions are counted.
func TestCacheBoundEnforcedUnderInsertion(t *testing.T) {
	for _, total := range []int{1, 3, 8, 20} {
		e := New(Options{Workers: 1, CacheSize: total})
		b := e.Bind(cpuProblem(t, "ivybridge", "stream"))
		for i := 0; i < 200; i++ {
			deriveInt(t, b, "flood", float64(i), 1+i%min(total, 3), i)
			if s := e.Stats(); s.Entries > total {
				t.Fatalf("total=%d: %d points stored after %d inserts", total, s.Entries, i+1)
			}
		}
		if s := e.Stats(); s.Evictions == 0 || s.Misses != 200 {
			t.Errorf("total=%d: %d evictions, %d misses after 200 distinct keys; want some evictions and 200 misses",
				total, s.Evictions, s.Misses)
		}
	}
}

// TestCacheSmallBoundStillServesHits: a memo of 4 points serves each
// entry back right after storing it.
func TestCacheSmallBoundStillServesHits(t *testing.T) {
	e := New(Options{Workers: 1, CacheSize: 4})
	b := e.Bind(cpuProblem(t, "ivybridge", "stream"))
	for i := 0; i < 4; i++ {
		deriveInt(t, b, "small", float64(i), 1, i)
		if got, fresh := deriveInt(t, b, "small", float64(i), 1, -1); fresh || got != i {
			t.Fatalf("entry %d: got %d, derived afresh %v", i, got, fresh)
		}
	}
	if s := e.Stats(); s.Hits != 4 || s.Misses != 4 {
		t.Fatalf("stats %+v: want 4 hits and 4 misses", s)
	}
}

// TestEngineStatsCapacityMatchesRequest checks the user-facing
// -cache-size bound surfaces truthfully through Stats, and that a
// disabled memo reports no capacity.
func TestEngineStatsCapacityMatchesRequest(t *testing.T) {
	if got := New(Options{Workers: 1, CacheSize: 5}).Stats().Capacity; got != 5 {
		t.Errorf("Stats().Capacity = %d for -cache-size 5, want 5", got)
	}
	if got := Serial().Stats().Capacity; got != 0 {
		t.Errorf("Serial().Stats().Capacity = %d, want 0", got)
	}
}

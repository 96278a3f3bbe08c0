package evalpool

import "sync"

// derivedKey addresses one result derived from a whole problem rather
// than from one point of it: the problem's content fingerprint, the
// kind of derivation, and one numeric parameter of it (e.g. a
// profiler's demand margin).
type derivedKey struct {
	fp    uint64
	kind  string
	param float64
}

// derivedCache memoizes per-problem derived results next to the point
// memo. It holds a handful of entries per problem against the points'
// hundreds, so one lock suffices; the bound and the arbitrary-victim
// eviction follow the point memo's.
type derivedCache struct {
	mu  sync.Mutex
	max int
	m   map[derivedKey]any
}

func newDerivedCache(max int) *derivedCache {
	return &derivedCache{max: max, m: make(map[derivedKey]any)}
}

// Derive returns what fn derives from the bound problem, memoized on
// the engine by the problem's content, kind and param: every later
// call with equal content — whoever built the Problem — returns the
// stored value without running fn. fn must be a pure function of the
// problem (typically a sequence of b.Evaluate calls), and T a plain
// value the callers never mutate through, since all of them share it.
// Errors are returned, never stored. An engine without a cache
// (CacheSize < 0) runs fn on every call. Concurrent first calls may
// each run fn; they store equal values.
func Derive[T any](b *Bound, kind string, param float64, fn func() (T, error)) (T, error) {
	d := b.e.derived
	if d == nil {
		return fn()
	}
	k := derivedKey{fp: b.fp, kind: kind, param: param}
	d.mu.Lock()
	v, ok := d.m[k]
	d.mu.Unlock()
	if ok {
		return v.(T), nil
	}
	res, err := fn()
	if err != nil {
		return res, err
	}
	d.mu.Lock()
	if _, exists := d.m[k]; !exists && len(d.m) >= d.max {
		for victim := range d.m {
			delete(d.m, victim)
			break
		}
	}
	d.m[k] = res
	d.mu.Unlock()
	return res, nil
}

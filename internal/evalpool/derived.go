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

// derivedEntry is one stored derivation and its weight in points.
type derivedEntry struct {
	v      any
	weight int
}

// derivedCache memoizes per-problem derived results next to the point
// memo. It holds a handful of entries per problem against the points'
// hundreds, so one lock suffices. Its bound is a weight in points,
// the unit of the point memo's bound: an entry counts as many points
// as it holds, so whatever mix of profiles and slates it stores, it
// never holds more points than the point memo may. Eviction is
// arbitrary-victim, like the point memo's.
type derivedCache struct {
	mu     sync.Mutex
	max    int
	weight int // sum of the stored entries' weights, ≤ max
	m      map[derivedKey]derivedEntry
}

func newDerivedCache(max int) *derivedCache {
	return &derivedCache{max: max, m: make(map[derivedKey]derivedEntry)}
}

// Derive is DeriveWeighted with weight 1: for derivations, such as a
// profile, that weigh about one simulated point.
func Derive[T any](b *Bound, kind string, param float64, fn func() (T, error)) (T, error) {
	return DeriveWeighted(b, kind, param, 1, fn)
}

// DeriveWeighted returns what fn derives from the bound problem,
// memoized on the engine by the problem's content, kind and param:
// every later call with equal content — whoever built the Problem —
// returns the stored value without running fn. fn must be a pure
// function of the problem (typically simulator calls on it or on
// problems cut from it, such as its single phases), and T a plain
// value the callers never mutate through, since all of them share it.
// weight is what the value counts against the memo's CacheSize bound,
// in simulated points; a value heavier than the whole bound is
// returned but not stored. Errors are returned, never stored. An
// engine without a cache (CacheSize < 0) runs fn on every call.
// Concurrent first calls may each run fn; they store equal values.
func DeriveWeighted[T any](b *Bound, kind string, param float64, weight int, fn func() (T, error)) (T, error) {
	d := b.e.derived
	if d == nil {
		return fn()
	}
	k := derivedKey{fp: b.fp, kind: kind, param: param}
	d.mu.Lock()
	e, ok := d.m[k]
	d.mu.Unlock()
	if ok {
		return e.v.(T), nil
	}
	res, err := fn()
	if err != nil {
		return res, err
	}
	weight = max(weight, 1)
	if weight > d.max {
		return res, nil
	}
	d.mu.Lock()
	if old, exists := d.m[k]; exists {
		d.weight -= old.weight
		delete(d.m, k)
	}
	for victim, v := range d.m {
		if d.weight+weight <= d.max {
			break
		}
		d.weight -= v.weight
		delete(d.m, victim)
	}
	d.m[k] = derivedEntry{v: res, weight: weight}
	d.weight += weight
	d.mu.Unlock()
	return res, nil
}

// load returns the stored weight.
func (d *derivedCache) load() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.weight
}

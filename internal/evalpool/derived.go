package evalpool

import (
	"sync"
	"sync/atomic"
)

// memoKey addresses one result derived from a whole problem rather
// than from one point of it: the problem's content fingerprint, the
// kind of derivation, and one numeric parameter of it (e.g. a
// profiler's demand margin, a placement's grant).
type memoKey struct {
	fp    uint64
	kind  string
	param float64
}

// memoEntry is one stored derivation and its weight in points.
type memoEntry struct {
	v      any
	weight int
}

// memo is the engine's one memo: derived results keyed by problem
// content, kind and parameter. Its bound is a weight in simulated
// points: an entry counts as many points as it holds, so whatever mix
// of profiles, curves, placements and slates it stores, it never holds
// more than max points' worth. Eviction is arbitrary-victim: which
// entry goes is irrelevant for correctness, only later hit rates
// differ.
type memo struct {
	mu     sync.Mutex
	max    int
	weight int // sum of the stored entries' weights, ≤ max
	m      map[memoKey]memoEntry

	hits, misses, evictions atomic.Uint64
}

func newMemo(max int) *memo {
	return &memo{max: max, m: make(map[memoKey]memoEntry)}
}

// Derive is DeriveWeighted with weight 1: for derivations, such as a
// profile or a placement, that weigh about one simulated point.
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
// engine without a memo (CacheSize < 0) runs fn on every call.
// Concurrent first calls may each run fn; they store equal values.
func DeriveWeighted[T any](b *Bound, kind string, param float64, weight int, fn func() (T, error)) (T, error) {
	d := b.e.memo
	if d == nil {
		return fn()
	}
	k := memoKey{fp: b.fp, kind: kind, param: param}
	d.mu.Lock()
	e, ok := d.m[k]
	d.mu.Unlock()
	if ok {
		d.hits.Add(1)
		return e.v.(T), nil
	}
	d.misses.Add(1)
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
		d.evictions.Add(1)
	}
	d.m[k] = memoEntry{v: res, weight: weight}
	d.weight += weight
	d.mu.Unlock()
	return res, nil
}

// load returns the stored weight.
func (d *memo) load() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.weight
}

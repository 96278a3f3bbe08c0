// Package flight is the allocation service's request coalescer:
// concurrent callers asking for the same key share one execution of
// the underlying function instead of stampeding it.
//
// The first caller for a key leads: its function runs on a goroutine
// of its own, so a caller that gives up (a request whose deadline
// expired) never blocks the computation other callers still want.
// Every caller waits on the call's Done channel, with no goroutine per
// waiter, and can select on it next to its own deadline. The entry is
// deleted when the function returns: a group deduplicates concurrent
// work only, so the next call for the key runs the function again and
// a failure is never replayed.
package flight

import "sync"

// Call is one in-flight execution of a group's function.
type Call[V any] struct {
	done chan struct{}
	val  V
}

// Done is closed when the function has returned.
func (c *Call[V]) Done() <-chan struct{} { return c.done }

// Val returns the function's result; it is valid once Done is closed.
func (c *Call[V]) Val() V { return c.val }

// Group deduplicates concurrent calls by key. The zero value is ready
// to use. The key must carry everything the result depends on.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*Call[V]
}

// Do joins the in-flight call for key, or starts fn for it on a new
// goroutine and reports leader. fn runs exactly once per call however
// many callers join it.
func (g *Group[V]) Do(key string, fn func() V) (c *Call[V], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	if g.calls == nil {
		g.calls = make(map[string]*Call[V])
	}
	c = &Call[V]{done: make(chan struct{})}
	g.calls[key] = c
	go func() {
		c.val = fn()
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	return c, true
}

package flight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wait returns the call's value, failing the test if it never
// completes.
func wait[V any](t *testing.T, c *Call[V]) V {
	t.Helper()
	select {
	case <-c.Done():
		return c.Val()
	case <-time.After(5 * time.Second):
		t.Fatal("call never completed")
	}
	panic("unreachable")
}

// retained reports how many calls the group still holds.
func retained[V any](g *Group[V]) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// TestDoDeduplicatesConcurrentCalls pins the core guarantee: N
// concurrent callers for one key execute fn exactly once and all see
// its result.
func TestDoDeduplicatesConcurrentCalls(t *testing.T) {
	var g Group[int]
	var calls atomic.Int32
	release := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	vals := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, _ := g.Do("k", func() int {
				calls.Add(1)
				<-release
				return 42
			})
			vals[i] = wait(t, c)
		}(i)
	}
	// Let every caller reach the group before the call completes.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for i := 0; i < n; i++ {
		if vals[i] != 42 {
			t.Errorf("caller %d got %d, want 42", i, vals[i])
		}
	}
}

// TestDoDistinctKeysRunIndependently checks different keys never share.
func TestDoDistinctKeysRunIndependently(t *testing.T) {
	var g Group[int]
	var calls atomic.Int32
	release := make(chan struct{})
	keys := []string{"a", "b", "ab", "ba", "a|b", "", "0", "00"}
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k string) {
			defer wg.Done()
			c, leader := g.Do(k, func() int {
				calls.Add(1)
				<-release
				return i * i
			})
			if !leader {
				t.Errorf("key %q joined another key's call", k)
			}
			if v := wait(t, c); v != i*i {
				t.Errorf("key %q: got %d, want %d", k, v, i*i)
			}
		}(i, k)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != int32(len(keys)) {
		t.Fatalf("fn ran %d times, want %d", got, len(keys))
	}
}

// TestErrorsSharedNotRetained: waiters share the leader's failure, and
// the next call after completion re-executes instead of replaying it.
func TestErrorsSharedNotRetained(t *testing.T) {
	var g Group[error]
	boom := errors.New("boom")
	release := make(chan struct{})
	c1, _ := g.Do("k", func() error {
		<-release
		return boom
	})
	c2, leader := g.Do("k", func() error {
		t.Error("follower fn must not run")
		return nil
	})
	if leader {
		t.Fatal("second Do led; want join")
	}
	close(release)
	for i, c := range []*Call[error]{c1, c2} {
		if err := wait(t, c); !errors.Is(err, boom) {
			t.Fatalf("caller %d got %v, want boom", i, err)
		}
	}
	if n := retained(&g); n != 0 {
		t.Fatalf("%d calls retained after completion, want 0", n)
	}
	c3, leader := g.Do("k", func() error { return nil })
	if !leader {
		t.Fatal("call after completion joined the finished call")
	}
	if err := wait(t, c3); err != nil {
		t.Fatalf("retry got %v, want nil", err)
	}
}

// TestSingleCallerNotShared: an uncontended call leads, and so does the
// next one after it completes — a lone caller never counts as joined.
func TestSingleCallerNotShared(t *testing.T) {
	var g Group[int]
	for i := 0; i < 2; i++ {
		c, leader := g.Do("solo", func() int { return i })
		if !leader {
			t.Fatalf("uncontended call %d joined", i)
		}
		if v := wait(t, c); v != i {
			t.Fatalf("call %d got %d", i, v)
		}
	}
}

// TestDoChanLeaderElection: exactly one of N concurrent callers is the
// leader.
func TestDoChanLeaderElection(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})
	var leaders atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, leader := g.Do("k", func() int {
				<-release
				return 1
			})
			if leader {
				leaders.Add(1)
			}
			wait(t, c)
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := leaders.Load(); got != 1 {
		t.Fatalf("%d leaders, want 1", got)
	}
}

// TestDoChanReceiverAbandonment pins the contract the allocation
// service's deadline path relies on: a leader that never waits for its
// call must not block the computation or the other waiters, and the
// group must not retain the completed call.
func TestDoChanReceiverAbandonment(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})

	// Leader: abandoned — nobody reads its call.
	_, leader := g.Do("k", func() int {
		<-release
		return 42
	})
	if !leader {
		t.Fatal("first Do did not lead")
	}

	// Follower joins the same call and does wait.
	c2, leader2 := g.Do("k", func() int {
		t.Error("follower fn must not run")
		return 0
	})
	if leader2 {
		t.Fatal("second Do led; want join")
	}

	close(release)
	if v := wait(t, c2); v != 42 {
		t.Fatalf("follower got %d, want 42", v)
	}

	// The completed call must not be retained: the next Do re-executes.
	if n := retained(&g); n != 0 {
		t.Fatalf("%d calls retained after completion, want 0", n)
	}
	c3, leader3 := g.Do("k", func() int { return 7 })
	if !leader3 {
		t.Fatal("post-completion Do joined the finished call")
	}
	if v := wait(t, c3); v != 7 {
		t.Fatalf("post-completion Do = %d, want 7", v)
	}
}

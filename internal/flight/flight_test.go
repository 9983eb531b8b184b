package flight

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// val is a compute that returns v.
func val(v string) func() (string, error) {
	return func() (string, error) { return v, nil }
}

// inFlight starts a computation of key on its own goroutine and returns
// once compute is running; the computation finishes with the result of
// finish after release is closed. wg tracks the goroutine, and check
// receives the computing caller's outcome.
func inFlight(c *Cache[string, string], wg *sync.WaitGroup, key string, release <-chan struct{},
	finish func() (string, error), check func(v string, hit bool, err error)) {
	entered := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, hit, err := c.Do(key, func() (string, error) {
			close(entered)
			<-release
			return finish()
		})
		check(v, hit, err)
	}()
	<-entered
}

// join starts a caller of key that must join the entry already present
// (its nil compute would turn into an error) and returns once that
// caller has found the entry.
func join(c *Cache[string, string], wg *sync.WaitGroup, key string, check func(v string, hit bool, err error)) {
	joined := make(chan struct{})
	c.joinHook = func() { close(joined) }
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, hit, err := c.Do(key, nil)
		check(v, hit, err)
	}()
	<-joined
	c.joinHook = nil
}

// TestErrorJoinNotAHit is the regression test for the accounting bug
// where a request joining an in-flight computation that finished in an
// error was counted as a cache hit.
func TestErrorJoinNotAHit(t *testing.T) {
	c := New[string, string](8, ForgetErrors)
	release := make(chan struct{})
	failure := errors.New("compute failed")
	var wg sync.WaitGroup
	inFlight(c, &wg, "k", release, func() (string, error) { return "", failure },
		func(_ string, hit bool, err error) {
			if hit || !errors.Is(err, failure) {
				t.Errorf("computing caller: hit=%v err=%v, want false/%v", hit, err, failure)
			}
		})
	join(c, &wg, "k", func(_ string, hit bool, err error) {
		if hit || !errors.Is(err, failure) {
			t.Errorf("joiner: hit=%v err=%v, want false and the shared %v", hit, err, failure)
		}
	})
	close(release)
	wg.Wait()

	st := c.Stats()
	if hits, misses := st.Hits.Load(), st.Misses.Load(); hits != 0 || misses != 1 {
		t.Errorf("hits=%d misses=%d after shared failure, want 0/1", hits, misses)
	}
	if c.Len() != 0 {
		t.Errorf("failed entry still cached: len=%d", c.Len())
	}
	// A later call recomputes (the failure was forgotten), and a
	// retained success is a hit.
	if _, hit, err := c.Do("k", val("fresh")); hit || err != nil {
		t.Errorf("recompute after failure: hit=%v err=%v", hit, err)
	}
	if v, hit, err := c.Do("k", nil); !hit || err != nil || v != "fresh" {
		t.Errorf("retained success: v=%q hit=%v err=%v", v, hit, err)
	}
	if hits, misses := st.Hits.Load(), st.Misses.Load(); hits != 1 || misses != 2 {
		t.Errorf("hits=%d misses=%d, want 1/2", hits, misses)
	}
}

// TestFailureNotRetained pins that a failed result is delivered with its
// value but never retained or counted as a hit under ForgetErrors, and
// retained — and counted as a hit on the next call — under KeepErrors.
func TestFailureNotRetained(t *testing.T) {
	failure := errors.New("not found")
	fail := func() (string, error) { return "partial", failure }

	forget := New[string, string](8, ForgetErrors)
	if v, hit, err := forget.Do("k", fail); v != "partial" || hit || !errors.Is(err, failure) {
		t.Fatalf("first = (%q, %v, %v)", v, hit, err)
	}
	if forget.Len() != 0 || forget.Stats().Hits.Load() != 0 {
		t.Fatalf("ForgetErrors retained a failure: len=%d hits=%d", forget.Len(), forget.Stats().Hits.Load())
	}

	keep := New[string, string](8, KeepErrors)
	keep.Do("k", fail)
	v, hit, err := keep.Do("k", nil)
	if v != "partial" || !hit || !errors.Is(err, failure) {
		t.Fatalf("KeepErrors second call = (%q, %v, %v), want the retained failure as a hit", v, hit, err)
	}
	if misses := keep.Stats().Misses.Load(); misses != 1 {
		t.Errorf("KeepErrors recomputed a retained failure: %d misses", misses)
	}
}

// TestEvictionSkipsInflight is the regression test for the eviction bug:
// trimming the LRU must never drop an entry whose computation is still
// in flight, because callers may be blocked on it.
func TestEvictionSkipsInflight(t *testing.T) {
	c := New[string, string](2, ForgetErrors)
	release := make(chan struct{})
	var wg sync.WaitGroup
	want := func(who string) func(string, bool, error) {
		return func(v string, _ bool, err error) {
			if err != nil || v != "a-val" {
				t.Errorf("%s: v=%q err=%v", who, v, err)
			}
		}
	}
	// Key a computes slowly; one waiter blocks on it.
	inFlight(c, &wg, "a", release, val("a-val"), want("computing caller"))
	join(c, &wg, "a", want("blocked waiter"))

	// Fill past capacity while a is in flight and oldest in LRU order:
	// the finished entries must be evicted around it.
	c.Do("b", val("b"))
	c.Do("c", val("c"))
	c.Do("d", val("d"))
	if got := c.Len(); got > 3 {
		t.Errorf("len=%d after overfill, want ≤ 3 (cap 2 + 1 in flight)", got)
	}

	// a must still be reachable and its waiters must complete correctly.
	close(release)
	wg.Wait()
	if v, hit, err := c.Do("a", nil); !hit || err != nil || v != "a-val" {
		t.Errorf("in-flight entry was dropped by eviction: v=%q hit=%v err=%v", v, hit, err)
	}
	// The oldest finished entry (b) must have been evicted.
	recomputed := false
	c.Do("b", func() (string, error) {
		recomputed = true
		return "b", nil
	})
	if !recomputed {
		t.Error("finished LRU entry b was not evicted")
	}
}

// TestEvictsLRUOrder pins plain LRU behaviour for finished entries:
// touching an entry protects it, the least recently used one goes first,
// and shrinking the capacity evicts immediately.
func TestEvictsLRUOrder(t *testing.T) {
	c := New[string, string](2, ForgetErrors)
	c.Do("a", val("a"))
	c.Do("b", val("b"))
	c.Do("a", nil) // touch a, making b least recent
	c.Do("c", val("c"))
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
	if _, hit, _ := c.Do("a", val("a2")); !hit {
		t.Error("recently used entry a was evicted")
	}
	if _, hit, _ := c.Do("c", val("c2")); !hit {
		t.Error("newest entry c was evicted")
	}
	c.SetCapacity(1)
	if _, hit, _ := c.Do("c", val("c3")); c.Len() != 1 || !hit {
		t.Errorf("after shrink: len=%d, most recent entry hit=%v; want 1, true", c.Len(), hit)
	}
	if n := c.Stats().Evictions.Load(); n != 2 {
		t.Errorf("evictions=%d, want 2 (b by the bound, a by the shrink)", n)
	}
}

// TestPanicReleasesWaiters pins that a panicking compute is turned into
// an error, waiters are released (rather than blocking on a done channel
// nobody will close), and the entry is forgotten.
func TestPanicReleasesWaiters(t *testing.T) {
	c := New[string, string](8, ForgetErrors)
	release := make(chan struct{})
	var wg sync.WaitGroup
	isPanic := func(who string) func(string, bool, error) {
		return func(_ string, hit bool, err error) {
			if hit || err == nil || !strings.Contains(err.Error(), "kaboom") {
				t.Errorf("%s: hit=%v err=%v, want the panic as an error", who, hit, err)
			}
		}
	}
	inFlight(c, &wg, "k", release, func() (string, error) { panic("kaboom") }, isPanic("computing caller"))
	join(c, &wg, "k", isPanic("waiter"))
	close(release)
	wg.Wait()
	if c.Len() != 0 {
		t.Errorf("panicked entry still cached: len=%d", c.Len())
	}
}

// TestPanicNotRetainedUnderKeepErrors pins that KeepErrors retains
// returned errors but never a panic: the next call recomputes. (Caches
// built on sync.Once returned a zero value with a nil error forever
// after a panic, and the entry could never be evicted.)
func TestPanicNotRetainedUnderKeepErrors(t *testing.T) {
	c := New[string, string](8, KeepErrors)
	_, hit, err := c.Do("k", func() (string, error) { panic("kaboom") })
	if hit || err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic: hit=%v err=%v, want the panic as an error", hit, err)
	}
	if c.Len() != 0 {
		t.Fatalf("panicked entry retained: len=%d", c.Len())
	}
	v, hit, err := c.Do("k", val("ok"))
	if v != "ok" || hit || err != nil {
		t.Errorf("call after panic = (%q, %v, %v), want a fresh computation", v, hit, err)
	}
	if misses := c.Stats().Misses.Load(); misses != 2 {
		t.Errorf("misses=%d, want 2", misses)
	}
}

// TestOnEvictOncePerFinishedEntry pins that OnEvict runs exactly once for
// each retained entry the bound evicts, with its value, and never for an
// in-flight entry, a forgotten failure, or a DeleteFunc removal.
func TestOnEvictOncePerFinishedEntry(t *testing.T) {
	c := New[string, string](2, ForgetErrors)
	var mu sync.Mutex
	got := map[string]int{}
	c.OnEvict = func(k, v string) {
		if v != k+"-val" {
			t.Errorf("OnEvict(%q) got value %q", k, v)
		}
		mu.Lock()
		got[k]++
		mu.Unlock()
	}
	release := make(chan struct{})
	var wg sync.WaitGroup
	inFlight(c, &wg, "slow", release, val("slow-val"), func(string, bool, error) {})
	c.Do("fail", func() (string, error) { return "", errors.New("x") })
	c.Do("a", val("a-val"))
	c.Do("b", val("b-val"))       // evicts a; slow is in flight and skipped
	c.Do("gone", val("gone-val")) // evicts b
	c.DeleteFunc(func(k string) bool { return k == "gone" })
	close(release)
	wg.Wait()
	c.Do("c", val("c-val"))
	c.Do("d", val("d-val")) // evicts the now finished slow

	want := map[string]int{"a": 1, "b": 1, "slow": 1}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("OnEvict calls = %v, want %v", got, want)
	}
	if n := c.Stats().Evictions.Load(); n != 3 {
		t.Errorf("evictions=%d, want 3", n)
	}
}

// TestDeleteFuncInflight pins the documented rule for an in-flight
// match: DeleteFunc removes it at once, the computation still completes
// for its waiters, its result is not retained, and a later call computes
// afresh.
func TestDeleteFuncInflight(t *testing.T) {
	for _, policy := range []Policy{ForgetErrors, KeepErrors} {
		c := New[string, string](8, policy)
		release := make(chan struct{})
		var wg sync.WaitGroup
		shared := func(who string) func(string, bool, error) {
			return func(v string, hit bool, err error) {
				if v != "old" || hit || err != nil {
					t.Errorf("policy %d %s: (%q, %v, %v), want the detached result, not a hit", policy, who, v, hit, err)
				}
			}
		}
		inFlight(c, &wg, "k", release, val("old"), shared("computing caller"))
		join(c, &wg, "k", shared("waiter"))
		c.DeleteFunc(func(k string) bool { return k == "k" })
		if c.Len() != 0 {
			t.Errorf("policy %d: in-flight match still counted: len=%d", policy, c.Len())
		}
		close(release)
		wg.Wait()
		if c.Len() != 0 {
			t.Errorf("policy %d: detached result was retained: len=%d", policy, c.Len())
		}
		if v, hit, _ := c.Do("k", val("new")); v != "new" || hit {
			t.Errorf("policy %d: after delete got (%q, hit=%v), want a fresh computation", policy, v, hit)
		}
	}
}

// TestConcurrentChurn mixes hits, misses, failures, panics, evictions,
// deletes and shrinks under -race, under both policies, and checks the
// bound, the counters and the OnEvict accounting once it settles.
func TestConcurrentChurn(t *testing.T) {
	for _, policy := range []Policy{ForgetErrors, KeepErrors} {
		const capacity = 4
		c := New[string, string](capacity, policy)
		var onEvict atomic.Int64
		c.OnEvict = func(k, v string) {
			if v != k {
				t.Errorf("OnEvict(%q) got value %q", k, v)
			}
			onEvict.Add(1)
		}
		var calls atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					key := fmt.Sprintf("k%d", (g+i)%10)
					switch i % 23 {
					case 5:
						c.DeleteFunc(func(k string) bool { return k == key })
						continue
					case 11:
						c.SetCapacity(capacity)
						continue
					}
					calls.Add(1)
					v, _, err := c.Do(key, func() (string, error) {
						switch {
						case i%13 == 0:
							panic("churn")
						case i%7 == 0:
							return key, errors.New("transient")
						}
						return key, nil
					})
					if err == nil && v != key {
						t.Errorf("key %s: got %q", key, v)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if got := c.Len(); got > capacity {
			t.Errorf("policy %d: len=%d after churn, want ≤ cap %d", policy, got, capacity)
		}
		st := c.Stats()
		if got := st.Evictions.Load(); got != onEvict.Load() {
			t.Errorf("policy %d: %d evictions but %d OnEvict calls", policy, got, onEvict.Load())
		}
		if hits, misses := st.Hits.Load(), st.Misses.Load(); hits+misses > calls.Load() || misses == 0 {
			t.Errorf("policy %d: hits=%d misses=%d over %d calls", policy, hits, misses, calls.Load())
		}
	}
}

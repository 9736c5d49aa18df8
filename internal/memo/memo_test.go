package memo

import (
	"sync"
	"sync/atomic"
	"testing"
)

type blob struct {
	id   int
	size int64
}

func (b *blob) Bytes() int64 { return b.size }

type key string

// fillOf returns a fill producing a fresh blob of size bytes and counts
// its calls in n.
func fillOf(n *int, id int, size int64) func() *blob {
	return func() *blob {
		*n++
		return &blob{id: id, size: size}
	}
}

func resident(t *testing.T, c *cache) int64 {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resident > c.budget {
		t.Fatalf("resident %d bytes exceeds the %d-byte budget", c.resident, c.budget)
	}
	var sum int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*entry).size
	}
	if sum != c.resident || c.lru.Len() != len(c.entries) {
		t.Fatalf("accounting drift: resident %d, entries sum %d, lru %d, map %d",
			c.resident, sum, c.lru.Len(), len(c.entries))
	}
	return c.resident
}

func cached(c *cache, k key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	return ok && e.el != nil
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := newCache(100)
	var fills int
	get(c, key("a"), fillOf(&fills, 1, 40))
	get(c, key("b"), fillOf(&fills, 2, 40))
	// A hit on "a" makes "b" the least recently used.
	if v := get(c, key("a"), fillOf(&fills, 9, 40)); v.id != 1 || fills != 2 {
		t.Fatalf("hit on a returned id %d after %d fills, want id 1 after 2", v.id, fills)
	}
	get(c, key("c"), fillOf(&fills, 3, 40))
	if cached(c, "b") || !cached(c, "a") || !cached(c, "c") {
		t.Fatalf("after inserting c: a=%v b=%v c=%v, want b evicted",
			cached(c, "a"), cached(c, "b"), cached(c, "c"))
	}
	if r := resident(t, c); r != 80 {
		t.Fatalf("resident %d, want 80", r)
	}
	// One entry the size of the whole budget evicts everything else.
	get(c, key("d"), fillOf(&fills, 4, 100))
	if cached(c, "a") || cached(c, "c") || !cached(c, "d") {
		t.Fatal("a budget-sized entry did not displace every other entry")
	}
	if r := resident(t, c); r != 100 {
		t.Fatalf("resident %d, want 100", r)
	}
}

func TestOversizedValueReturnedNotKept(t *testing.T) {
	c := newCache(100)
	var fills int
	get(c, key("small"), fillOf(&fills, 1, 30))
	if v := get(c, key("big"), fillOf(&fills, 2, 101)); v.id != 2 {
		t.Fatalf("oversized fill returned id %d, want 2", v.id)
	}
	if cached(c, "big") {
		t.Fatal("an oversized value was kept")
	}
	if !cached(c, "small") {
		t.Fatal("an oversized value evicted a resident entry")
	}
	get(c, key("big"), fillOf(&fills, 2, 101))
	if fills != 3 {
		t.Fatalf("%d fills, want 3: an oversized value is recomputed on every Get", fills)
	}
	resident(t, c)
}

func TestResidentBytesStayWithinBudget(t *testing.T) {
	c := newCache(100)
	var fills int
	for i := 0; i < 200; i++ {
		k := key(rune('a' + i%13))
		get(c, k, fillOf(&fills, i, int64(7+i*31%90)))
		resident(t, c)
	}
}

func TestSingleFlight(t *testing.T) {
	c := newCache(100)
	var fills atomic.Int32
	release := make(chan struct{})
	fill := func() *blob {
		fills.Add(1)
		<-release
		return &blob{id: 7, size: 10}
	}
	const callers = 16
	got := make([]*blob, callers)
	var start, done sync.WaitGroup
	start.Add(callers)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer done.Done()
			start.Done()
			got[i] = get(c, key("k"), fill)
		}()
	}
	start.Wait()
	close(release)
	done.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("fill ran %d times for one key, want 1", n)
	}
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p: callers must share one value", i, v, got[0])
		}
	}
}

func TestPanickingFillLeavesNoEntry(t *testing.T) {
	c := newCache(100)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the fill's panic did not reach its caller")
			}
		}()
		get(c, key("k"), func() *blob { panic("fill failed") })
	}()
	c.mu.Lock()
	_, left := c.entries[key("k")]
	c.mu.Unlock()
	if left {
		t.Fatal("a panicking fill left an entry")
	}
	var fills int
	if v := get(c, key("k"), fillOf(&fills, 3, 10)); v.id != 3 || fills != 1 {
		t.Fatalf("Get after a panicked fill returned id %d after %d fills, want a fresh fill", v.id, fills)
	}
	if r := resident(t, c); r != 10 {
		t.Fatalf("resident %d, want 10", r)
	}
}

// TestWaitersRetryAfterPanic holds waiters on a fill that panics: each
// must be released and the key filled once more by one of them.
func TestWaitersRetryAfterPanic(t *testing.T) {
	c := newCache(100)
	release := make(chan struct{})
	filling := make(chan struct{})
	panicked := make(chan struct{})
	go func() {
		defer close(panicked)
		defer func() { _ = recover() }()
		get(c, key("k"), func() *blob {
			close(filling)
			<-release
			panic("fill failed")
		})
	}()
	<-filling
	var fills atomic.Int32
	const waiters = 4
	got := make([]*blob, waiters)
	var queued, done sync.WaitGroup
	queued.Add(waiters)
	done.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer done.Done()
			queued.Done()
			got[i] = get(c, key("k"), func() *blob {
				fills.Add(1)
				return &blob{id: 5, size: 10}
			})
		}()
	}
	queued.Wait()
	close(release)
	<-panicked
	done.Wait()
	if n := fills.Load(); n < 1 || n > waiters {
		t.Fatalf("%d retried fills, want between 1 and %d", n, waiters)
	}
	for i, v := range got {
		if v == nil || v.id != 5 {
			t.Fatalf("waiter %d got %+v, want the retried fill's value", i, v)
		}
	}
	if !cached(c, "k") {
		t.Fatal("the retried fill was not kept")
	}
}

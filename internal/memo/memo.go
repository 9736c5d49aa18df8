// Package memo is the simulator's one store of memoised values: a
// process-wide, byte-budgeted LRU with single-flight fills. It holds the
// products the pipeline computes once and reuses across steps B and C
// and across experiment variants — recorded phase streams
// (internal/workload) and step-B phase ingests (internal/core).
//
// Every value it keeps must be a pure function of its key, so whether a
// caller fills, hits or waits on another caller's fill never changes a
// result; eviction only costs the time to compute the value again. Keys
// are comparable values of a type private to the calling package, so
// two packages' keys never collide.
package memo

import (
	"container/list"
	"sync"
)

// budget bounds the bytes the process-wide memo keeps resident. It must
// hold a whole suite's working set — every (workload, shape, phase)
// stream and ingest the process touches, tens of MB each — because an
// evicted value is recomputed at full cost: an undersized budget turns
// the memo into a treadmill where each experiment evicts what the next
// one needs. Least-recently-used entries are dropped only past it.
const budget = 8 << 30

// Sizer is a memoisable value: Bytes reports the heap bytes it holds,
// which the memo charges against its budget.
type Sizer interface{ Bytes() int64 }

var process = newCache(budget)

// Get returns the value memoised under key, calling fill to compute it
// when there is none. Fills are single-flight: a caller that finds a
// fill for key in flight waits for it and returns its value. A value
// larger than the budget is returned but not kept. If fill panics, the
// panic propagates to its caller, no entry is left behind, and waiters
// retry the fill themselves. fill may call Get for other keys, never
// for its own.
func Get[V Sizer](key any, fill func() V) V { return get(process, key, fill) }

type cache struct {
	mu       sync.Mutex
	budget   int64
	resident int64
	lru      list.List // of resident *entry, most recently used first
	entries  map[any]*entry
}

// entry is one key's value, or its fill while in flight. done closes
// when the fill returns or panics; ok reports whether val and its size
// hold the result. el is the entry's LRU element, nil until it is kept.
type entry struct {
	key  any
	val  Sizer
	size int64
	ok   bool
	done chan struct{}
	el   *list.Element
}

func newCache(budget int64) *cache {
	return &cache{budget: budget, entries: map[any]*entry{}}
}

func get[V Sizer](c *cache, key any, fill func() V) V {
	c.mu.Lock()
	for {
		e, ok := c.entries[key]
		if !ok {
			break
		}
		if e.el != nil {
			c.lru.MoveToFront(e.el)
			c.mu.Unlock()
			return e.val.(V)
		}
		c.mu.Unlock()
		<-e.done
		if e.ok {
			return e.val.(V)
		}
		c.mu.Lock() // the fill panicked; try it here
	}
	e := &entry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.settle(e)
		c.mu.Unlock()
		close(e.done)
	}()
	v := fill()
	e.val, e.size, e.ok = v, v.Bytes(), true
	return v
}

// settle ends e's fill: it keeps the value, evicting least-recently-used
// entries to stay within the budget, or drops the key when the fill
// panicked or the value alone exceeds the budget. c.mu must be held.
func (c *cache) settle(e *entry) {
	if !e.ok || e.size > c.budget {
		delete(c.entries, e.key)
		return
	}
	for c.resident+e.size > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*entry)
		delete(c.entries, old.key)
		c.resident -= old.size
	}
	e.el = c.lru.PushFront(e)
	c.resident += e.size
}

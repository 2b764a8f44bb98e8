package serve

import (
	"container/heap"
	"fmt"
	"sync"
)

// JobTable is the job registry a front end keeps: it assigns IDs
// (<prefix>-%06d), answers lookups, tracks which jobs are live (admitted
// and not yet terminal), and bounds retention. Past max jobs it evicts
// terminal ones, oldest registration first; a live job is never evicted,
// so with every job live the bound is soft. Register, Finish and eviction
// cost O(log n) and never copy the table.
type JobTable[T any] struct {
	prefix string
	max    int
	name   func(T, string) // records the assigned ID on the job

	mu      sync.Mutex
	seq     int
	entries map[string]*tableEntry[T]
	live    map[string]*tableEntry[T]
	byKey   map[string]*tableEntry[T] // coalescing key → live entry
	done    doneHeap[T]               // terminal entries, oldest first
}

type tableEntry[T any] struct {
	job T
	id  string
	seq int
	key string
}

// NewJobTable builds a table whose IDs carry prefix and which retains
// about max jobs. name is called under the table's lock with each
// assigned ID, before the job becomes visible to any other caller.
func NewJobTable[T any](prefix string, max int, name func(T, string)) *JobTable[T] {
	return &JobTable[T]{
		prefix:  prefix,
		max:     max,
		name:    name,
		entries: make(map[string]*tableEntry[T]),
		live:    make(map[string]*tableEntry[T]),
		byKey:   make(map[string]*tableEntry[T]),
	}
}

// Register assigns j an ID and records it, live or already terminal.
// A live job with a non-empty coalescing key is checked and registered
// atomically: when a live job already holds the key, j is not registered
// and that job is returned with coalesced = true.
func (t *JobTable[T]) Register(j T, key string, terminal bool) (existing T, coalesced bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.byKey[key]; ok && key != "" && !terminal {
		return e.job, true
	}
	t.seq++
	e := &tableEntry[T]{job: j, id: fmt.Sprintf("%s-%06d", t.prefix, t.seq), seq: t.seq}
	t.name(j, e.id)
	t.entries[e.id] = e
	if terminal {
		heap.Push(&t.done, e)
	} else {
		t.live[e.id] = e
		if key != "" {
			e.key = key
			t.byKey[key] = e
		}
	}
	for len(t.entries) > t.max && t.done.Len() > 0 {
		old := heap.Pop(&t.done).(*tableEntry[T])
		if t.entries[old.id] == old {
			delete(t.entries, old.id)
		}
	}
	return existing, false
}

// Finish marks a live job terminal: it stops coalescing and becomes
// evictable. Finishing a terminal or unknown job is a no-op.
func (t *JobTable[T]) Finish(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.live[id]
	if !ok {
		return
	}
	t.dropLive(e)
	heap.Push(&t.done, e)
}

// Remove forgets a job, typically one that was never admitted.
func (t *JobTable[T]) Remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[id]; ok {
		delete(t.entries, id)
		t.dropLive(e)
	}
}

func (t *JobTable[T]) dropLive(e *tableEntry[T]) {
	delete(t.live, e.id)
	if t.byKey[e.key] == e {
		delete(t.byKey, e.key)
	}
}

// Get returns the job registered under id.
func (t *JobTable[T]) Get(id string) (T, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		var zero T
		return zero, false
	}
	return e.job, true
}

// Pending returns the live jobs, in no particular order.
func (t *JobTable[T]) Pending() []T {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]T, 0, len(t.live))
	for _, e := range t.live {
		out = append(out, e.job)
	}
	return out
}

// doneHeap is a min-heap of terminal entries by registration order.
type doneHeap[T any] []*tableEntry[T]

func (h doneHeap[T]) Len() int           { return len(h) }
func (h doneHeap[T]) Less(i, j int) bool { return h[i].seq < h[j].seq }
func (h doneHeap[T]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *doneHeap[T]) Push(x any)        { *h = append(*h, x.(*tableEntry[T])) }
func (h *doneHeap[T]) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

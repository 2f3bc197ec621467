// Package replacement studies DRAM-cache replacement policies on page
// reference streams, reproducing the claim of §III-C.2: the fully
// associative OS-managed cache with a simple FIFO policy incurs about 23%
// fewer DC misses than a 16-way set-associative HW cache with LRU, because
// full associativity eliminates conflict misses — which is why NOMAD can
// afford FIFO's simplicity (no access profiling on the hot path).
//
// Policies here are trace-driven and purely functional: they consume page
// reference streams (no timing), so very long streams are cheap.
package replacement

import "container/list"

// Policy simulates one cache organization over a page reference stream.
type Policy interface {
	Name() string
	// Access references a page; it reports whether the reference missed
	// (requiring a fill).
	Access(page uint64) bool
	// Misses returns the running miss count.
	Misses() uint64
	// Accesses returns the running reference count.
	Accesses() uint64
}

// counts provides the shared bookkeeping.
type counts struct {
	misses   uint64
	accesses uint64
}

func (c *counts) Misses() uint64   { return c.misses }
func (c *counts) Accesses() uint64 { return c.accesses }

// MissRate returns misses/accesses for any policy.
func MissRate(p Policy) float64 {
	if p.Accesses() == 0 {
		return 0
	}
	return float64(p.Misses()) / float64(p.Accesses())
}

// FIFO is a fully associative cache with first-in-first-out replacement —
// the OS-managed organization of TDC and NOMAD (circular free queue,
// Fig. 5).
//
//nomad:ephemeral replacement bookkeeping; divergence surfaces in the registered eviction counters
type FIFO struct {
	counts
	capacity int
	queue    *list.List               // front = oldest
	resident map[uint64]*list.Element // page -> queue node
}

// NewFIFO builds a fully associative FIFO cache holding capacity pages.
func NewFIFO(capacity int) *FIFO {
	if capacity <= 0 {
		panic("replacement: capacity must be positive")
	}
	return &FIFO{
		capacity: capacity,
		queue:    list.New(),
		resident: make(map[uint64]*list.Element, capacity),
	}
}

// Name implements Policy.
func (f *FIFO) Name() string { return "FIFO-FA" }

// Access implements Policy.
func (f *FIFO) Access(page uint64) bool {
	f.accesses++
	if _, ok := f.resident[page]; ok {
		return false // FIFO does not reorder on hit
	}
	f.misses++
	if f.queue.Len() >= f.capacity {
		oldest := f.queue.Front()
		f.queue.Remove(oldest)
		delete(f.resident, oldest.Value.(uint64))
	}
	f.resident[page] = f.queue.PushBack(page)
	return true
}

// LRUFA is a fully associative cache with least-recently-used replacement
// (an upper-bound reference point: what FIFO gives up by not profiling).
//
//nomad:ephemeral replacement bookkeeping; divergence surfaces in the registered eviction counters
type LRUFA struct {
	counts
	capacity int
	queue    *list.List // front = LRU
	resident map[uint64]*list.Element
}

// NewLRUFA builds a fully associative LRU cache holding capacity pages.
func NewLRUFA(capacity int) *LRUFA {
	if capacity <= 0 {
		panic("replacement: capacity must be positive")
	}
	return &LRUFA{
		capacity: capacity,
		queue:    list.New(),
		resident: make(map[uint64]*list.Element, capacity),
	}
}

// Name implements Policy.
func (l *LRUFA) Name() string { return "LRU-FA" }

// Access implements Policy.
func (l *LRUFA) Access(page uint64) bool {
	l.accesses++
	if e, ok := l.resident[page]; ok {
		l.queue.MoveToBack(e)
		return false
	}
	l.misses++
	if l.queue.Len() >= l.capacity {
		lru := l.queue.Front()
		l.queue.Remove(lru)
		delete(l.resident, lru.Value.(uint64))
	}
	l.resident[page] = l.queue.PushBack(page)
	return true
}

// SetAssocLRU is an n-way set-associative cache with per-set LRU — the
// organization HW-based DRAM caches are restricted to for scalability
// (§III-C.2 cites 4- and 16-way designs).
type SetAssocLRU struct {
	counts
	ways int
	sets []setState
}

//nomad:ephemeral replacement bookkeeping; divergence surfaces in the registered eviction counters
type setState struct {
	pages []uint64 // index 0 = LRU
}

// NewSetAssocLRU builds a capacity-page cache organized as capacity/ways
// sets of the given associativity.
func NewSetAssocLRU(capacity, ways int) *SetAssocLRU {
	if capacity <= 0 || ways <= 0 || capacity%ways != 0 {
		panic("replacement: capacity must be a positive multiple of ways")
	}
	return &SetAssocLRU{
		ways: ways,
		sets: make([]setState, capacity/ways),
	}
}

// Name implements Policy.
func (s *SetAssocLRU) Name() string { return "SA-LRU" }

// Access implements Policy.
func (s *SetAssocLRU) Access(page uint64) bool {
	s.accesses++
	set := &s.sets[page%uint64(len(s.sets))]
	for i, p := range set.pages {
		if p == page {
			// Move to MRU position.
			set.pages = append(append(set.pages[:i], set.pages[i+1:]...), page)
			return false
		}
	}
	s.misses++
	if len(set.pages) >= s.ways {
		set.pages = set.pages[1:] // evict LRU
	}
	set.pages = append(set.pages, page)
	return true
}

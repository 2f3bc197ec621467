package replacement

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func refString(p Policy, pages ...uint64) {
	for _, pg := range pages {
		p.Access(pg)
	}
}

func TestFIFOBasics(t *testing.T) {
	f := NewFIFO(2)
	refString(f, 1, 2, 1) // 1,2 miss; 1 hits
	if f.Misses() != 2 || f.Accesses() != 3 {
		t.Fatalf("misses=%d accesses=%d", f.Misses(), f.Accesses())
	}
	// 3 evicts 1 (oldest), even though 1 was just referenced: FIFO.
	refString(f, 3, 1)
	if f.Misses() != 4 {
		t.Fatalf("FIFO did not evict in insertion order: misses=%d", f.Misses())
	}
}

// TestFIFOMatchesQueueOracle: on a long random stream FIFO-FA misses exactly
// where a plain insertion-order queue does, so every victim is the oldest
// resident page. TestFIFOBasics' two-page cache cannot reliably tell that
// apart from a victim picked in map order.
func TestFIFOMatchesQueueOracle(t *testing.T) {
	const capacity = 16
	f := NewFIFO(capacity)
	var queue []uint64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		pg := uint64(rng.Intn(64))
		hit := slices.Contains(queue, pg)
		if !hit {
			if len(queue) == capacity {
				queue = queue[1:]
			}
			queue = append(queue, pg)
		}
		if miss := f.Access(pg); miss == hit {
			t.Fatalf("reference %d (page %d): FIFO miss %v, oracle miss %v", i, pg, miss, !hit)
		}
	}
}

func TestLRUFABasics(t *testing.T) {
	l := NewLRUFA(2)
	refString(l, 1, 2, 1) // 1,2 miss; 1 hit promotes 1
	refString(l, 3)       // evicts 2 (LRU), not 1
	refString(l, 1)
	if l.Misses() != 3 {
		t.Fatalf("LRU evicted the recently used page: misses=%d", l.Misses())
	}
}

func TestSetAssocConflictMisses(t *testing.T) {
	// 4 pages mapping to the same set of a 2-way cache conflict even
	// though total capacity (8) would hold them.
	s := NewSetAssocLRU(8, 2)
	sets := uint64(4)
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 4; i++ {
			s.Access(i * sets) // all land in set 0
		}
	}
	if s.Misses() != 12 {
		t.Fatalf("conflict thrash misses = %d, want 12 (every access)", s.Misses())
	}
	// The fully associative FIFO holds all four.
	f := NewFIFO(8)
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 4; i++ {
			f.Access(i * sets)
		}
	}
	if f.Misses() != 4 {
		t.Fatalf("FA FIFO misses = %d, want 4 (compulsory only)", f.Misses())
	}
}

func TestMissRate(t *testing.T) {
	f := NewFIFO(4)
	refString(f, 1, 2, 1, 2)
	if got := MissRate(f); got != 0.5 {
		t.Fatalf("miss rate = %v", got)
	}
	if MissRate(NewFIFO(1)) != 0 {
		t.Fatal("empty policy miss rate not 0")
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewFIFO(0) },
		func() { NewLRUFA(-1) },
		func() { NewSetAssocLRU(10, 3) }, // not a multiple
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad constructor did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestOccupancyInvariant: no policy ever retains more pages than its
// capacity, and re-referencing a resident page never misses.
func TestOccupancyInvariant(t *testing.T) {
	f := func(refs []uint16) bool {
		const capacity = 32
		fifo := NewFIFO(capacity)
		lru := NewLRUFA(capacity)
		sa := NewSetAssocLRU(capacity, 4)
		for _, r := range refs {
			pg := uint64(r % 256)
			fifo.Access(pg)
			lru.Access(pg)
			sa.Access(pg)
			// Immediate re-reference must hit in every policy.
			if fifo.Access(pg) || lru.Access(pg) || sa.Access(pg) {
				return false
			}
		}
		if len(fifo.resident) > capacity || len(lru.resident) > capacity {
			return false
		}
		for i := range sa.sets {
			if len(sa.sets[i].pages) > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLRUStackProperty: LRU is a stack algorithm, so on any reference
// stream a larger fully associative LRU cache never misses more than a
// smaller one (the inclusion property).
func TestLRUStackProperty(t *testing.T) {
	f := func(refs []uint16) bool {
		small := NewLRUFA(16)
		large := NewLRUFA(64)
		for _, r := range refs {
			pg := uint64(r % 512)
			small.Access(pg)
			large.Access(pg)
		}
		return large.Misses() <= small.Misses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

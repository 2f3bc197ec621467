package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"nomad/internal/sim"
)

// tickSet is the reference model of one set's replacement state: a per-way
// LRU tick plus valid and dirty flags. A hit or a fill stamps the way with
// a fresh tick; a fill takes the first invalid way in way order, else the
// way with the smallest tick; invalidation keeps the way's tick. setState
// must behave exactly like it.
type tickSet struct {
	ways  int
	lru   [maxWays]uint64
	valid [maxWays]bool
	dirty [maxWays]bool
	tick  uint64
}

func (o *tickSet) hit(w int, write bool) {
	o.tick++
	o.lru[w] = o.tick
	if write {
		o.dirty[w] = true
	}
}

func (o *tickSet) victim() int {
	victim := 0
	oldest := ^uint64(0)
	for w := 0; w < o.ways; w++ {
		if !o.valid[w] {
			return w
		}
		if o.lru[w] < oldest {
			oldest = o.lru[w]
			victim = w
		}
	}
	return victim
}

func (o *tickSet) install(w int, dirty bool) {
	o.tick++
	o.lru[w] = o.tick
	o.valid[w] = true
	o.dirty[w] = dirty
}

func (o *tickSet) invalidate(w int) {
	o.valid[w] = false
	o.dirty[w] = false
}

// order lists the ways from the most to the least recently touched. Ways
// never touched share tick 0 and follow in way order, which is where the
// record's zero value, the identity order, keeps them.
func (o *tickSet) order() []int {
	ws := make([]int, 0, o.ways)
	for w := 0; w < o.ways; w++ {
		r := len(ws)
		for r > 0 && o.lru[ws[r-1]] < o.lru[w] {
			r--
		}
		ws = append(ws, 0)
		copy(ws[r+1:], ws[r:])
		ws[r] = w
	}
	return ws
}

// compareSet reports the first difference between the record and the
// oracle: victim, valid and dirty bits, and the full recency order.
func compareSet(s *setState, o *tickSet) error {
	if got, want := s.victim(o.ways), o.victim(); got != want {
		return fmt.Errorf("victim %d, oracle %d", got, want)
	}
	var valid, dirty uint32
	for w := 0; w < o.ways; w++ {
		if o.valid[w] {
			valid |= 1 << w
		}
		if o.dirty[w] {
			dirty |= 1 << w
		}
	}
	if s.valid != valid || s.dirty != dirty {
		return fmt.Errorf("valid/dirty %#x/%#x, oracle %#x/%#x", s.valid, s.dirty, valid, dirty)
	}
	for r, w := range o.order() {
		if got := s.at(r); got != w {
			return fmt.Errorf("rank %d holds way %d, oracle %d (perm %#x)", r, got, w, s.perm^identityPerm)
		}
	}
	return nil
}

// runSetOps drives a record and the oracle through ops, one byte each:
// bits 0-1 pick the operation (read hit, write hit, fill, invalidate), bit
// 2 makes a fill dirty, and bits 3-7 pick the way. A hit goes to the first
// valid way at or after the picked one, as the cache hits only valid ways;
// a fill takes the victim, as the cache's fill does. Both start as zero
// values, as a new cache's sets do.
func runSetOps(ways int, ops []byte) error {
	var s setState
	o := tickSet{ways: ways}
	if err := compareSet(&s, &o); err != nil {
		return fmt.Errorf("%d ways, initial state: %v", ways, err)
	}
	for i, op := range ops {
		w := int(op>>3) % ways
		switch op & 3 {
		case 0, 1:
			for n := 0; n < ways && !o.valid[w]; n++ {
				w = (w + 1) % ways
			}
			if !o.valid[w] {
				continue
			}
			s.hit(w, op&1 == 1)
			o.hit(w, op&1 == 1)
		case 2:
			v := o.victim()
			s.install(v, op&4 != 0)
			o.install(v, op&4 != 0)
		case 3:
			s.invalidate(w)
			o.invalidate(w)
		}
		if err := compareSet(&s, &o); err != nil {
			return fmt.Errorf("%d ways, after op %d (%#02x): %v", ways, i, op, err)
		}
	}
	return nil
}

// TestSetMatchesTickOracle drives the per-set record and the tick model
// through random hits, writes, fills and invalidations for every way count
// the record supports, comparing them after every step.
func TestSetMatchesTickOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 2000)
	for ways := 1; ways <= maxWays; ways++ {
		for seq := 0; seq < 20; seq++ {
			rng.Read(ops)
			if err := runSetOps(ways, ops); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzSetMatchesTickOracle is TestSetMatchesTickOracle over fuzzed inputs:
// the first byte picks the way count, the rest are runSetOps operations.
func FuzzSetMatchesTickOracle(f *testing.F) {
	f.Add([]byte{7, 2, 2, 0x0a, 2, 0x18, 3, 2, 1, 0x1b, 2, 2})
	f.Add([]byte{15, 2, 2, 2, 0x21, 0x7b, 2, 0x46, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if err := runSetOps(1+int(data[0])%maxWays, data[1:]); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNewCacheIsZero: New allocates the tags and set records and writes
// nothing into them, because their zero values are the empty way and the
// empty set.
func TestNewCacheIsZero(t *testing.T) {
	c := New(sim.New(), Config{Name: "T", Sets: 64, Ways: 8}, nil)
	for i, tag := range c.tags {
		if tag != 0 {
			t.Fatalf("tag %d of a new cache is %#x, want 0", i, tag)
		}
	}
	for i, s := range c.sets {
		if s != (setState{}) {
			t.Fatalf("set %d of a new cache is %+v, want the zero value", i, s)
		}
	}
}

// TestSetStateSize pins the record at 16 bytes per set.
func TestSetStateSize(t *testing.T) {
	if n := unsafe.Sizeof(setState{}); n != 16 {
		t.Fatalf("setState is %d bytes, want 16", n)
	}
}

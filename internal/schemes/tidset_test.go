package schemes

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// tickTiDSet is the reference model of one TiD set: per-way tags, valid and
// dirty flags and an LRU tick. A hit or an install stamps the way with a
// fresh tick; a miss takes the first invalid way in way order, else the way
// with the smallest tick, and invalidates it until its fill installs the
// new line. tidSet must behave exactly like it.
type tickTiDSet struct {
	tags  [tidWays]uint64
	valid [tidWays]bool
	dirty [tidWays]bool
	lru   [tidWays]uint64
	tick  uint64
}

func (o *tickTiDSet) hit(w int, write bool) {
	o.tick++
	o.lru[w] = o.tick
	if write {
		o.dirty[w] = true
	}
}

func (o *tickTiDSet) victim() int {
	way := 0
	oldest := ^uint64(0)
	for w := range o.lru {
		if !o.valid[w] {
			return w
		}
		if o.lru[w] < oldest {
			oldest = o.lru[w]
			way = w
		}
	}
	return way
}

func (o *tickTiDSet) install(w int, tag uint64, dirty bool) {
	o.tick++
	o.tags[w], o.valid[w], o.dirty[w], o.lru[w] = tag, true, dirty, o.tick
}

func (o *tickTiDSet) invalidate(w int) {
	o.valid[w] = false
	o.dirty[w] = false
}

// order lists the ways from the most to the least recently touched. Ways
// never touched share tick 0 and follow in way order, which is where the
// record's zero value, the identity order, keeps them.
func (o *tickTiDSet) order() []int {
	ws := make([]int, 0, tidWays)
	for w := range o.lru {
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

// compareTiDSet reports the first difference between the record and the
// oracle: victim, valid and dirty bits, valid ways' tags, and the full
// recency order.
func compareTiDSet(s *tidSet, o *tickTiDSet) error {
	if got, want := s.victim(), o.victim(); got != want {
		return fmt.Errorf("victim %d, oracle %d", got, want)
	}
	for w := range o.valid {
		valid, dirty := s.ways[w]&tidValid != 0, s.ways[w]&tidDirty != 0
		if valid != o.valid[w] || dirty != o.dirty[w] {
			return fmt.Errorf("way %d valid/dirty %v/%v, oracle %v/%v", w, valid, dirty, o.valid[w], o.dirty[w])
		}
		if o.valid[w] && s.tag(w) != o.tags[w] {
			return fmt.Errorf("way %d tag %#x, oracle %#x", w, s.tag(w), o.tags[w])
		}
	}
	for r, w := range o.order() {
		if got := s.rank(w); got != r {
			return fmt.Errorf("way %d at rank %d, oracle %d (ways %#x)", w, got, r, s.ways)
		}
	}
	return nil
}

// TestTiDSetMatchesTickOracle drives the tag store's per-set record and the
// tick model through random hits, writes, misses and fills, comparing them
// after every step. Up to three fills are outstanding at once, so a second
// miss to the set before a fill completes takes the same way, as in
// TiD.miss, and fills complete out of order.
func TestTiDSetMatchesTickOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type fill struct {
		way   int
		tag   uint64
		dirty bool
	}
	for seq := 0; seq < 200; seq++ {
		var s tidSet
		var o tickTiDSet
		var fills []fill
		for step := 0; step < 500; step++ {
			switch op := rng.Intn(4); {
			case op < 2:
				w := rng.Intn(tidWays)
				if !o.valid[w] {
					continue
				}
				s.hit(w, op == 1)
				o.hit(w, op == 1)
			case op == 2 && len(fills) < 3:
				v := o.victim()
				if got := s.victim(); got != v {
					t.Fatalf("sequence %d step %d: miss took way %d, oracle %d", seq, step, got, v)
				}
				s.invalidate(v)
				o.invalidate(v)
				fills = append(fills, fill{v, uint64(rng.Int63n(tidTagMask + 1)), rng.Intn(2) == 1})
			case len(fills) > 0:
				i := rng.Intn(len(fills))
				f := fills[i]
				fills = append(fills[:i], fills[i+1:]...)
				s.install(f.way, f.tag, f.dirty)
				o.install(f.way, f.tag, f.dirty)
			}
			if err := compareTiDSet(&s, &o); err != nil {
				t.Fatalf("sequence %d step %d: %v", seq, step, err)
			}
		}
	}
}

// TestNewTiDIsZero: NewTiD allocates the tag store and writes nothing into
// it, because a set's zero value is the empty set.
func TestNewTiDIsZero(t *testing.T) {
	e := newEnv(1, 64)
	s := NewTiD(e.eng, e.hbm, e.ddr, e.mm, 100, TiDConfig{CapacityBytes: 1 << 20})
	for i, set := range s.sets {
		if set != (tidSet{}) {
			t.Fatalf("set %d of a new tag store is %#x, want the zero value", i, set.ways)
		}
	}
}

// TestTiDSetSize pins the tag store's record at 16 bytes per set.
func TestTiDSetSize(t *testing.T) {
	if n := unsafe.Sizeof(tidSet{}); n != 16 {
		t.Fatalf("tidSet is %d bytes, want 16", n)
	}
}

// TestTiDSetTagLimit: the widest 28-bit tag installs, dirty, and reads back
// without touching the way's state bits, and a wider one panics instead of
// aliasing another line or a state bit.
func TestTiDSetTagLimit(t *testing.T) {
	var s tidSet
	s.install(1, tidTagMask, true)
	if s.tag(1) != tidTagMask || s.rank(1) != 0 || s.ways[1]&(tidValid|tidDirty) != tidValid|tidDirty {
		t.Fatalf("way word %#x, want tag %#x, valid, dirty, rank 0", s.ways[1], tidTagMask)
	}
	if s.tag(0) != 0 || s.rank(0) != 1 {
		t.Fatalf("way 0 word %#x after installing way 1, want tag 0 at rank 1", s.ways[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("installing a 29-bit tag did not panic")
		}
	}()
	s.install(2, tidTagMask+1, false)
}

package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"nomad/internal/mem"
	"nomad/internal/sim"
)

// tickLevel is the reference model of a level: a map of entries stamped
// with a per-level LRU tick, evicting the entry with the smallest tick. It
// costs O(capacity) per eviction; level must behave exactly like it.
type tickLevel struct {
	entries map[uint64]*tickSlot
	cap     int
	tick    uint64
}

type tickSlot struct {
	e   Entry
	lru uint64
}

func newTickLevel(capacity int) *tickLevel {
	return &tickLevel{entries: make(map[uint64]*tickSlot, capacity), cap: capacity}
}

func (l *tickLevel) lookup(vpn uint64) (Entry, bool) {
	s, ok := l.entries[vpn]
	if !ok {
		return Entry{}, false
	}
	l.tick++
	s.lru = l.tick
	return s.e, true
}

func (l *tickLevel) insert(e Entry) (Entry, bool) {
	if s, ok := l.entries[e.VPN]; ok {
		l.tick++
		s.e = e
		s.lru = l.tick
		return Entry{}, false
	}
	var victim Entry
	evicted := false
	if len(l.entries) >= l.cap {
		var vk uint64
		oldest := ^uint64(0)
		for k, s := range l.entries {
			if s.lru < oldest {
				oldest = s.lru
				vk = k
			}
		}
		victim = l.entries[vk].e
		delete(l.entries, vk)
		evicted = true
	}
	l.tick++
	l.entries[e.VPN] = &tickSlot{e: e, lru: l.tick}
	return victim, evicted
}

func (l *tickLevel) invalidate(vpn uint64) (Entry, bool) {
	s, ok := l.entries[vpn]
	if !ok {
		return Entry{}, false
	}
	delete(l.entries, vpn)
	return s.e, true
}

// checkList verifies the recency list of l against its index: every
// resident slot is linked exactly once, head to tail and back.
func checkList(t *testing.T, l *level) {
	t.Helper()
	n := 0
	prev := int32(-1)
	for i := l.head; i >= 0; i = l.slots[i].next {
		if l.slots[i].prev != prev {
			t.Fatalf("slot %d: prev = %d, want %d", i, l.slots[i].prev, prev)
		}
		if j, ok := l.index[l.slots[i].e.VPN]; !ok || j != i {
			t.Fatalf("slot %d (vpn %d) not indexed", i, l.slots[i].e.VPN)
		}
		prev = i
		n++
		if n > len(l.index) {
			t.Fatal("recency list longer than the index (cycle?)")
		}
	}
	if l.tail != prev {
		t.Fatalf("tail = %d, want %d", l.tail, prev)
	}
	if n != len(l.index) {
		t.Fatalf("recency list holds %d slots, index %d", n, len(l.index))
	}
	if len(l.slots) > l.cap {
		t.Fatalf("%d slots allocated past capacity %d", len(l.slots), l.cap)
	}
}

// TestLevelMatchesTickOracle drives level and the tick-stamped reference
// with the same random lookup/insert/invalidate sequence and requires the
// same returned entries and victims at every operation, and the same
// residency and a well-formed recency list throughout.
func TestLevelMatchesTickOracle(t *testing.T) {
	for _, capacity := range []int{1, 2, 4, 64, 1536} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			got, want := newLevel(capacity), newTickLevel(capacity)
			// Twice the capacity in distinct pages keeps the level full
			// and evicting most of the time.
			pages := 2*capacity + 2
			ops := max(5*pages, 2000)
			for op := 0; op < ops; op++ {
				vpn := uint64(rng.Intn(pages))
				switch k := rng.Intn(10); {
				case k < 4:
					ge, gok := got.lookup(vpn)
					we, wok := want.lookup(vpn)
					if ge != we || gok != wok {
						t.Fatalf("op %d lookup(%d) = %v,%v, want %v,%v", op, vpn, ge, gok, we, wok)
					}
				case k < 8:
					e := Entry{VPN: vpn, Frame: uint64(op), Space: mem.Space(op % 2)}
					gv, gok := got.insert(e)
					wv, wok := want.insert(e)
					if gv != wv || gok != wok {
						t.Fatalf("op %d insert(%d) evicted %v,%v, want %v,%v", op, vpn, gv, gok, wv, wok)
					}
				default:
					ge, gok := got.invalidate(vpn)
					we, wok := want.invalidate(vpn)
					if ge != we || gok != wok {
						t.Fatalf("op %d invalidate(%d) = %v,%v, want %v,%v", op, vpn, ge, gok, we, wok)
					}
				}
				if len(got.index) != len(want.entries) {
					t.Fatalf("op %d: %d resident, want %d", op, len(got.index), len(want.entries))
				}
				if op%7 != 0 && op != ops-1 {
					continue // the full comparison is O(capacity)
				}
				for v, s := range want.entries {
					i, ok := got.index[v]
					if !ok {
						t.Fatalf("op %d: vpn %d not resident", op, v)
					}
					if got.slots[i].e != s.e {
						t.Fatalf("op %d: vpn %d resident as %v, want %v", op, v, got.slots[i].e, s.e)
					}
				}
				checkList(t, got)
			}
		})
	}
}

// dirEvent is one Directory notification, in order.
type dirEvent struct {
	inserted bool
	e        Entry
}

type seqDir struct{ events []dirEvent }

func (d *seqDir) TLBInserted(core int, e Entry) { d.events = append(d.events, dirEvent{true, e}) }
func (d *seqDir) TLBEvicted(core int, e Entry)  { d.events = append(d.events, dirEvent{false, e}) }

// spaceOf gives every third page a physical translation, so the directory
// filter on cache-space entries is exercised too.
func spaceOf(vpn uint64) mem.Space {
	if vpn%3 == 0 {
		return mem.SpacePhysical
	}
	return mem.SpaceCache
}

type mixedWalker struct{ eng *sim.Engine }

func (w mixedWalker) Walk(core int, vaddr uint64, done func(Entry)) {
	vpn := mem.PageNum(vaddr)
	w.eng.Schedule(50, func() { done(Entry{VPN: vpn, Frame: vpn + 7, Space: spaceOf(vpn)}) })
}

// oracleTLB replays TLB.Translate and TLB.Invalidate, one at a time, on two
// tick-stamped reference levels, logging what the directory must see.
type oracleTLB struct {
	l1, l2 *tickLevel
	dir    seqDir
}

func (o *oracleTLB) translate(vpn uint64) {
	if _, ok := o.l1.lookup(vpn); ok {
		return
	}
	if e, ok := o.l2.lookup(vpn); ok {
		o.l1.insert(e)
		return
	}
	e := Entry{VPN: vpn, Frame: vpn + 7, Space: spaceOf(vpn)}
	if victim, ok := o.l2.insert(e); ok {
		o.l1.invalidate(victim.VPN)
		if victim.Space == mem.SpaceCache {
			o.dir.TLBEvicted(0, victim)
		}
	}
	if e.Space == mem.SpaceCache {
		o.dir.TLBInserted(0, e)
	}
	o.l1.insert(e)
}

func (o *oracleTLB) invalidate(vpn uint64) bool {
	_, ok1 := o.l1.invalidate(vpn)
	e, ok2 := o.l2.invalidate(vpn)
	if ok2 && e.Space == mem.SpaceCache {
		o.dir.TLBEvicted(0, e)
	}
	return ok1 || ok2
}

// TestTLBDirectoryMatchesTickOracle: a TLB built on level sends the
// directory the same insert/evict sequence, and keeps the same residency,
// as the same operations replayed on the tick-stamped reference levels.
func TestTLBDirectoryMatchesTickOracle(t *testing.T) {
	for _, sz := range [][2]int{{1, 1}, {1, 2}, {2, 4}, {4, 64}, {64, 1536}} {
		t.Run(fmt.Sprintf("%dx%d", sz[0], sz[1]), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sz[1])))
			eng := sim.New()
			dir := &seqDir{}
			tl := New(eng, 0, Config{L1Entries: sz[0], L2Entries: sz[1], L2Latency: 9}, mixedWalker{eng}, dir)
			o := &oracleTLB{l1: newTickLevel(sz[0]), l2: newTickLevel(sz[1])}
			pages := 2*sz[1] + 2
			for op := 0; op < max(4*pages, 3000); op++ {
				vpn := uint64(rng.Intn(pages))
				if rng.Intn(8) == 0 {
					if got, want := tl.Invalidate(vpn), o.invalidate(vpn); got != want {
						t.Fatalf("op %d Invalidate(%d) = %v, want %v", op, vpn, got, want)
					}
				} else {
					e := translate(t, eng, tl, vpn*mem.PageSize)
					if e.Frame != vpn+7 {
						t.Fatalf("op %d: vpn %d translated to frame %d", op, vpn, e.Frame)
					}
					o.translate(vpn)
				}
				if len(dir.events) != len(o.dir.events) {
					t.Fatalf("op %d: %d directory events, want %d", op, len(dir.events), len(o.dir.events))
				}
			}
			for i := range o.dir.events {
				if dir.events[i] != o.dir.events[i] {
					t.Fatalf("directory event %d = %+v, want %+v", i, dir.events[i], o.dir.events[i])
				}
			}
			for _, lv := range []struct {
				got  *level
				want *tickLevel
			}{{tl.l1, o.l1}, {tl.l2, o.l2}} {
				if len(lv.got.index) != len(lv.want.entries) {
					t.Fatalf("%d resident, want %d", len(lv.got.index), len(lv.want.entries))
				}
				for v := range lv.want.entries {
					if _, ok := lv.got.index[v]; !ok {
						t.Fatalf("vpn %d not resident", v)
					}
				}
			}
		})
	}
}

package tlb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

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

// indexed maps every VPN the level's table holds to its slot.
func indexed(l *level) map[uint64]int16 {
	idx := make(map[uint64]int16, l.n)
	for _, s := range l.table {
		if s != 0 {
			idx[l.slots[s-1].vpn()] = int16(s - 1)
		}
	}
	return idx
}

// checkList verifies the recency list of l against its index: every
// resident slot is linked exactly once, head to tail and back, and every
// indexed VPN is reachable from its home position.
func checkList(t *testing.T, l *level) {
	t.Helper()
	idx := indexed(l)
	if len(idx) != l.n {
		t.Fatalf("table holds %d distinct VPNs, level counts %d", len(idx), l.n)
	}
	for vpn, i := range idx {
		if _, j := l.find(vpn); j != i {
			t.Fatalf("vpn %d in slot %d, but probing finds slot %d", vpn, i, j)
		}
	}
	n := 0
	prev := int16(-1)
	for i := l.head; i >= 0; i = l.slots[i].next {
		if l.slots[i].prev != prev {
			t.Fatalf("slot %d: prev = %d, want %d", i, l.slots[i].prev, prev)
		}
		if j, ok := idx[l.slots[i].vpn()]; !ok || j != i {
			t.Fatalf("slot %d (vpn %d) not indexed", i, l.slots[i].vpn())
		}
		prev = i
		n++
		if n > len(idx) {
			t.Fatal("recency list longer than the index (cycle?)")
		}
	}
	if l.tail != prev {
		t.Fatalf("tail = %d, want %d", l.tail, prev)
	}
	if n != len(idx) {
		t.Fatalf("recency list holds %d slots, index %d", n, len(idx))
	}
	if len(l.slots) > l.cap {
		t.Fatalf("%d slots allocated past capacity %d", len(l.slots), l.cap)
	}
}

// levelOp is one operation of a level test sequence: kind 0-3 a lookup,
// 4-7 an insert, 8-9 an invalidation.
type levelOp struct {
	kind int
	vpn  uint64
}

// runLevelOps applies ops to level and the tick-stamped reference and
// requires the same returned entries and victims at every operation, the
// same residency and a well-formed recency list throughout. An insert's
// space and frame follow its op index: both spaces occur, so a slot that
// loses the space bit fails, and half the frames sit just below 2^32.
func runLevelOps(t *testing.T, capacity int, ops []levelOp) {
	t.Helper()
	got, want := newLevel(capacity), newTickLevel(capacity)
	for op, o := range ops {
		vpn := o.vpn
		switch {
		case o.kind < 4:
			ge, gok := got.lookup(vpn)
			we, wok := want.lookup(vpn)
			if ge != we || gok != wok {
				t.Fatalf("op %d lookup(%d) = %v,%v, want %v,%v", op, vpn, ge, gok, we, wok)
			}
		case o.kind < 8:
			frame := uint64(op)
			if op%4 >= 2 {
				frame = math.MaxUint32 - frame
			}
			e := Entry{VPN: vpn, Frame: frame, Space: mem.Space(op % 2)}
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
		if got.n != len(want.entries) {
			t.Fatalf("op %d: %d resident, want %d", op, got.n, len(want.entries))
		}
		if op%7 != 0 && op != len(ops)-1 {
			continue // the full comparison is O(capacity)
		}
		for v, s := range want.entries {
			_, i := got.find(v)
			if i < 0 {
				t.Fatalf("op %d: vpn %d not resident", op, v)
			}
			if e := got.slots[i].entry(); e != s.e {
				t.Fatalf("op %d: vpn %d resident as %v, want %v", op, v, e, s.e)
			}
		}
		checkList(t, got)
	}
}

// pagePool returns n distinct-looking VPNs: 0..n-1 when dense, else random
// 36-bit page numbers, whose hashes collide as often as chance has them.
func pagePool(rng *rand.Rand, n int, dense bool) []uint64 {
	pool := make([]uint64, n)
	for i := range pool {
		pool[i] = uint64(i)
		if !dense {
			pool[i] = uint64(rng.Int63n(1 << 36))
		}
	}
	return pool
}

// TestLevelMatchesTickOracle drives level and the tick-stamped reference
// with the same random lookup/insert/invalidate sequence over twice the
// capacity in pages, dense and scattered, which keeps the level full and
// evicting most of the time.
func TestLevelMatchesTickOracle(t *testing.T) {
	for _, capacity := range []int{1, 2, 4, 64, 1536} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			for _, dense := range []bool{true, false} {
				t.Run(fmt.Sprintf("dense=%v", dense), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(capacity)))
					pool := pagePool(rng, 2*capacity+2, dense)
					ops := make([]levelOp, max(5*len(pool), 2000))
					for i := range ops {
						ops[i] = levelOp{kind: rng.Intn(10), vpn: pool[rng.Intn(len(pool))]}
					}
					runLevelOps(t, capacity, ops)
				})
			}
		})
	}
}

// FuzzLevelMatchesTickOracle is TestLevelMatchesTickOracle on fuzzed
// sequences: the first byte picks the capacity (1-256), and each following
// pair of bytes one operation over twice that many scattered pages.
func FuzzLevelMatchesTickOracle(f *testing.F) {
	f.Add([]byte{3, 4, 1, 5, 2, 6, 3, 7, 4, 8, 0, 9, 1})
	// A long random sequence at capacity 16, so a plain test run already
	// evicts through long probe runs.
	long := make([]byte, 1201)
	rand.New(rand.NewSource(1)).Read(long)
	long[0] = 15
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		capacity := 1 + int(data[0])
		pool := pagePool(rand.New(rand.NewSource(int64(capacity))), 2*capacity, false)
		ops := make([]levelOp, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			ops = append(ops, levelOp{
				kind: int(data[i]&0xf) % 10,
				vpn:  pool[(int(data[i]>>4)<<8|int(data[i+1]))%len(pool)],
			})
		}
		runLevelOps(t, capacity, ops)
	})
}

// TestSlotSize pins a level's slot at 16 bytes.
func TestSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 16 {
		t.Fatalf("slot is %d bytes, want 16", n)
	}
}

// TestLevelLimits: a level holds up to maxEntries (32,767) entries, and New
// refuses a level past that; an entry's frame may use 32 bits and no more.
func TestLevelLimits(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	eng := sim.New()
	New(eng, 0, Config{L1Entries: 1, L2Entries: maxEntries}, nil, nil)
	mustPanic("an L1 past maxEntries", func() {
		New(eng, 0, Config{L1Entries: maxEntries + 1, L2Entries: 1}, nil, nil)
	})
	mustPanic("an L2 past maxEntries", func() {
		New(eng, 0, Config{L1Entries: 1, L2Entries: maxEntries + 1}, nil, nil)
	})
	l := newLevel(2)
	top := Entry{VPN: 1<<52 - 1, Frame: math.MaxUint32, Space: mem.SpaceCache}
	l.insert(top)
	if e, ok := l.lookup(top.VPN); !ok || e != top {
		t.Fatalf("lookup after inserting %+v = %+v, %v", top, e, ok)
	}
	mustPanic("a frame past 32 bits", func() { l.insert(Entry{VPN: 2, Frame: 1 << 32}) })
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
				if lv.got.n != len(lv.want.entries) {
					t.Fatalf("%d resident, want %d", lv.got.n, len(lv.want.entries))
				}
				for v := range lv.want.entries {
					if _, i := lv.got.find(v); i < 0 {
						t.Fatalf("vpn %d not resident", v)
					}
				}
			}
		})
	}
}

// Package tlb models per-core two-level TLBs and the page-table walk path.
//
// OS-managed DRAM cache schemes store the DC tag (a cache frame number) in
// the PTE, so a TLB hit yields the on-package cache address directly — the
// "ideal DC access time" property. All scheme-specific behaviour (examining
// the PTE, invoking the DC tag miss handler, blocking the thread) lives
// behind the Walker interface, which the scheme front-end implements.
//
// The TLB also feeds the CPD TLB directory used for shootdown avoidance: a
// Directory listener is told whenever a cache-space translation enters or
// leaves the (inclusive) second-level TLB, so the eviction daemon can skip
// TLB-resident cache frames (Algorithm 2, lines 6-8).
package tlb

import (
	"fmt"
	"math"
	"math/bits"

	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/sim"
)

// Entry is a completed translation: virtual page -> frame in a space.
type Entry struct {
	VPN   uint64
	Frame uint64
	Space mem.Space
}

// Walker resolves a TLB miss. Implementations model the page-table walk and
// any OS miss handling; done fires when the translation is available. vaddr
// is the full faulting virtual address: OS-managed DC schemes use its page
// offset to set the prioritized sub-block (PI) of the cache-fill command
// (critical-data-first, §III-D.2).
type Walker interface {
	Walk(core int, vaddr uint64, done func(Entry))
}

// Directory observes residency of cache-space translations in the TLB (both
// levels; the L2 is inclusive of the L1). Physical-space entries are not
// reported.
type Directory interface {
	TLBInserted(core int, e Entry)
	TLBEvicted(core int, e Entry)
}

// Config sizes the two TLB levels.
type Config struct {
	L1Entries int
	L2Entries int
	L2Latency uint64 // added cycles for an L1-miss/L2-hit translation
}

// DefaultConfig matches the evaluation setup: 64-entry L1, 1536-entry L2,
// 9-cycle L2 access.
func DefaultConfig() Config {
	return Config{L1Entries: 64, L2Entries: 1536, L2Latency: 9}
}

// Stats counts translation events for one core's TLB.
type Stats struct {
	L1Hits    uint64
	L2Hits    uint64
	Misses    uint64 // page-table walks
	Coalesced uint64
}

// MissRate returns walks / lookups.
func (s *Stats) MissRate() float64 {
	t := s.L1Hits + s.L2Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// maxEntries bounds each level's capacity: slots link to each other by
// int16 index.
const maxEntries = math.MaxInt16

// slot is one entry of a level's slot array, linked into the level's
// recency list by index: 16 bytes.
type slot struct {
	key        uint64 // VPN<<1 | space
	frame      uint32
	prev, next int16 // neighbours toward the MRU and LRU ends; -1 at the ends
}

func (s *slot) vpn() uint64 { return s.key >> 1 }

// entry unpacks the slot's translation.
func (s *slot) entry() Entry {
	return Entry{VPN: s.key >> 1, Frame: uint64(s.frame), Space: mem.Space(s.key & 1)}
}

// set stores e in the slot; insert has checked that its frame fits.
func (s *slot) set(e Entry) {
	s.key = e.VPN<<1 | uint64(e.Space)
	s.frame = uint32(e.Frame)
}

// level is one exact-LRU TLB array. Resident entries sit in a slot array
// doubly linked MRU→LRU by index, found through an open-addressed VPN index,
// so lookup, insert, eviction and invalidation are all O(1): the victim is
// the list tail, never a scan.
type level struct {
	// table is the VPN index: a power-of-two array, at least twice the
	// capacity, of slot+1 (0 = empty), probed linearly from the VPN's
	// Fibonacci hash. Deletion shifts the rest of the probe run back, so
	// there are no tombstones and probes stay short under constant
	// eviction.
	table []uint16
	shift uint // 64 - log2(len(table))
	n     int  // resident entries
	// slots grows on demand up to cap, so a level that never fills never
	// holds its full array.
	slots      []slot
	head, tail int16 // MRU and LRU slots; -1 when empty
	free       int16 // invalidated slots, chained through next; -1 when none
	cap        int
}

func newLevel(capacity int) *level {
	if capacity > maxEntries {
		panic(fmt.Sprintf("tlb: %d entries in a level exceed the limit of %d", capacity, maxEntries))
	}
	size := 2
	for size < 2*capacity {
		size *= 2
	}
	return &level{
		table: make([]uint16, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		head:  -1, tail: -1, free: -1, cap: capacity,
	}
}

// home is vpn's first probe position.
func (l *level) home(vpn uint64) int {
	return int((vpn * 0x9e3779b97f4a7c15) >> l.shift)
}

// find returns vpn's table position and slot, or the empty position that
// ends its probe run and -1.
func (l *level) find(vpn uint64) (pos int, slot int16) {
	mask := len(l.table) - 1
	for p := l.home(vpn); ; p = (p + 1) & mask {
		s := l.table[p]
		if s == 0 {
			return p, -1
		}
		if l.slots[s-1].vpn() == vpn {
			return p, int16(s - 1)
		}
	}
}

// unindex empties table position p and moves back every later entry of the
// probe run that may occupy the hole: one whose home is not cyclically in
// (hole, position].
func (l *level) unindex(p int) {
	mask := len(l.table) - 1
	for q := (p + 1) & mask; l.table[q] != 0; q = (q + 1) & mask {
		s := l.table[q]
		if (q-l.home(l.slots[s-1].vpn()))&mask >= (q-p)&mask {
			l.table[p] = s
			p = q
		}
	}
	l.table[p] = 0
}

// unlink removes slot i from the recency list.
func (l *level) unlink(i int16) {
	s := &l.slots[i]
	if s.prev >= 0 {
		l.slots[s.prev].next = s.next
	} else {
		l.head = s.next
	}
	if s.next >= 0 {
		l.slots[s.next].prev = s.prev
	} else {
		l.tail = s.prev
	}
}

// pushFront links slot i in as the most recently used.
func (l *level) pushFront(i int16) {
	s := &l.slots[i]
	s.prev, s.next = -1, l.head
	if l.head >= 0 {
		l.slots[l.head].prev = i
	} else {
		l.tail = i
	}
	l.head = i
}

// touch makes slot i the most recently used. It is unlink plus pushFront
// for a slot that is not the head (so has a predecessor), written out
// because it runs on every TLB hit.
func (l *level) touch(i int16) {
	if i == l.head {
		return
	}
	slots := l.slots
	s := &slots[i]
	slots[s.prev].next = s.next
	if s.next >= 0 {
		slots[s.next].prev = s.prev
	} else {
		l.tail = s.prev
	}
	slots[l.head].prev = i
	s.prev, s.next = -1, l.head
	l.head = i
}

// newSlot returns an unlinked slot: an invalidated one if any, else a new
// one at the end of the array, which grows like append but never past cap.
func (l *level) newSlot() int16 {
	if i := l.free; i >= 0 {
		l.free = l.slots[i].next
		return i
	}
	if n := len(l.slots); n == cap(l.slots) {
		grown := make([]slot, n, min(n+n/4+16, l.cap))
		copy(grown, l.slots)
		l.slots = grown
	}
	l.slots = append(l.slots, slot{})
	return int16(len(l.slots) - 1)
}

// lookup returns vpn's entry and makes it the most recently used. A hit on
// the list head returns before probing: touching the head changes nothing.
func (l *level) lookup(vpn uint64) (Entry, bool) {
	if h := l.head; h >= 0 && l.slots[h].vpn() == vpn {
		return l.slots[h].entry(), true
	}
	_, i := l.find(vpn)
	if i < 0 {
		return Entry{}, false
	}
	l.touch(i)
	return l.slots[i].entry(), true
}

// insert adds e, returning the evicted entry if the level was full. It
// panics on a frame past 32 bits; osmem keeps PFNs and CFNs below that.
func (l *level) insert(e Entry) (Entry, bool) {
	if e.Frame > math.MaxUint32 {
		panic(fmt.Sprintf("tlb: frame %#x of VPN %#x exceeds 32 bits", e.Frame, e.VPN))
	}
	p, i := l.find(e.VPN)
	if i >= 0 {
		l.slots[i].set(e)
		l.touch(i)
		return Entry{}, false
	}
	var victim Entry
	evicted := false
	if l.n >= l.cap {
		i = l.tail
		victim = l.slots[i].entry()
		evicted = true
		l.unlink(i)
		vp, _ := l.find(victim.VPN)
		l.unindex(vp)
		// Emptying the victim's position may have shortened e's probe
		// run: look again for its first empty position.
		p, _ = l.find(e.VPN)
	} else {
		i = l.newSlot()
		l.n++
	}
	l.slots[i].set(e)
	l.pushFront(i)
	l.table[p] = uint16(i + 1)
	return victim, evicted
}

func (l *level) invalidate(vpn uint64) (Entry, bool) {
	p, i := l.find(vpn)
	if i < 0 {
		return Entry{}, false
	}
	l.unindex(p)
	l.n--
	l.unlink(i)
	e := l.slots[i].entry()
	l.slots[i] = slot{next: l.free}
	l.free = i
	return e, true
}

// TLB is one core's translation state.
type TLB struct {
	core   int
	cfg    Config
	eng    *sim.Engine
	walker Walker
	dir    Directory
	l1, l2 *level
	// inFlight coalesces concurrent walks to the same VPN.
	inFlight map[uint64]*walkOp
	stats    Stats
	// walkLat records page-table-walk latency per walk (nil until
	// RegisterMetrics; Observe on nil is a no-op).
	walkLat *metrics.Histogram
	// hits is the freelist of pooled L2-hit completions (the deferred
	// done(entry) call after the L2 latency), so L2 hits do not allocate.
	hits []*hitOp
	// walks is the freelist of pooled in-flight page-table walks.
	walks []*walkOp
}

// hitOp is one pooled deferred L2-hit completion; fn is its permanent
// scheduled callback.
type hitOp struct {
	e    Entry
	done func(Entry)
	fn   func()
}

// walkOp is one pooled in-flight page-table walk: the coalesced waiter list
// plus the walk's permanent completion callback fn, built once per instance.
type walkOp struct {
	vpn     uint64
	start   uint64
	waiters []func(Entry)
	fn      func(Entry)
}

func (t *TLB) getWalk() *walkOp {
	if n := len(t.walks); n > 0 {
		op := t.walks[n-1]
		t.walks = t.walks[:n-1]
		return op
	}
	op := &walkOp{}
	op.fn = func(e Entry) { t.walkDone(op, e) }
	return op
}

// walkDone completes a walk: install the entry, recycle the op, then fire
// the coalesced waiters (release-before-callback: a waiter may start a new
// walk and reuse the op; the waiter array is handed back afterwards if the
// op is still unclaimed).
func (t *TLB) walkDone(op *walkOp, e Entry) {
	t.walkLat.Observe(t.eng.Now() - op.start)
	t.install(e)
	delete(t.inFlight, op.vpn)
	ws := op.waiters
	op.waiters = nil
	t.walks = append(t.walks, op)
	for i := range ws {
		ws[i](e)
	}
	for i := range ws {
		ws[i] = nil // release the done closures
	}
	if op.waiters == nil {
		op.waiters = ws[:0]
	}
}

func (t *TLB) getHit() *hitOp {
	if n := len(t.hits); n > 0 {
		op := t.hits[n-1]
		t.hits = t.hits[:n-1]
		return op
	}
	op := &hitOp{}
	op.fn = func() {
		e, done := op.e, op.done
		op.done = nil
		t.hits = append(t.hits, op)
		done(e)
	}
	return op
}

// New builds a TLB for the given core. dir may be nil. It panics on a level
// of more than 32,767 entries.
func New(eng *sim.Engine, core int, cfg Config, walker Walker, dir Directory) *TLB {
	return &TLB{
		core:     core,
		cfg:      cfg,
		eng:      eng,
		walker:   walker,
		dir:      dir,
		l1:       newLevel(cfg.L1Entries),
		l2:       newLevel(cfg.L2Entries),
		inFlight: make(map[uint64]*walkOp),
	}
}

// Stats returns the TLB's counters.
func (t *TLB) Stats() *Stats { return &t.stats }

// RegisterMetrics exposes the TLB's counters in reg under prefix (e.g.
// "tlb.0"), plus a walk-latency histogram. The counters are registered by
// reference, like every other component's.
func (t *TLB) RegisterMetrics(reg *metrics.Registry, prefix string) {
	s := &t.stats
	reg.Counter(prefix+".l1_hits", &s.L1Hits)
	reg.Counter(prefix+".l2_hits", &s.L2Hits)
	reg.Counter(prefix+".walks", &s.Misses)
	reg.Counter(prefix+".coalesced", &s.Coalesced)
	t.walkLat = reg.Histogram(prefix + ".walk_latency")
}

// Translate resolves the virtual address's page. done receives the entry;
// on an L1 hit it is called synchronously (zero added latency, the paper's
// ideal DC access path), otherwise after the L2 latency or the full walk.
func (t *TLB) Translate(vaddr uint64, done func(Entry)) {
	vpn := mem.PageNum(vaddr)
	if e, ok := t.l1.lookup(vpn); ok {
		t.stats.L1Hits++
		done(e)
		return
	}
	if e, ok := t.l2.lookup(vpn); ok {
		t.stats.L2Hits++
		t.insertL1(e)
		op := t.getHit()
		op.e = e
		op.done = done
		t.eng.Schedule(t.cfg.L2Latency, op.fn)
		return
	}
	if op, ok := t.inFlight[vpn]; ok {
		t.stats.Coalesced++
		op.waiters = append(op.waiters, done)
		return
	}
	t.stats.Misses++
	op := t.getWalk()
	op.vpn = vpn
	op.start = t.eng.Now()
	op.waiters = append(op.waiters, done)
	t.inFlight[vpn] = op
	t.walker.Walk(t.core, vaddr, op.fn)
}

// install puts a walked entry into both levels, maintaining inclusion and
// notifying the directory.
func (t *TLB) install(e Entry) {
	victim, evicted := t.l2.insert(e)
	if evicted {
		t.l1.invalidate(victim.VPN)
		if t.dir != nil && victim.Space == mem.SpaceCache {
			t.dir.TLBEvicted(t.core, victim)
		}
	}
	if t.dir != nil && e.Space == mem.SpaceCache {
		t.dir.TLBInserted(t.core, e)
	}
	t.insertL1(e)
}

// insertL1 adds e to the first level; L1 evictions stay resident in L2 so
// the directory is not notified.
func (t *TLB) insertL1(e Entry) {
	t.l1.insert(e)
}

// Invalidate removes a translation from both levels (TLB shootdown). It
// reports whether the entry was present.
func (t *TLB) Invalidate(vpn uint64) bool {
	_, ok1 := t.l1.invalidate(vpn)
	e, ok2 := t.l2.invalidate(vpn)
	if ok2 && t.dir != nil && e.Space == mem.SpaceCache {
		t.dir.TLBEvicted(t.core, e)
	}
	return ok1 || ok2
}

// Resident reports whether vpn currently has a translation cached.
func (t *TLB) Resident(vpn uint64) bool {
	_, i := t.l2.find(vpn)
	return i >= 0
}

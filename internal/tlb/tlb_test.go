package tlb

import (
	"testing"
	"testing/quick"

	"nomad/internal/check"
	"nomad/internal/mem"
	"nomad/internal/sim"
)

// fakeWalker resolves every vpn to frame = vpn+1000 after a delay, counting
// walks.
type fakeWalker struct {
	eng   *sim.Engine
	delay uint64
	walks int
	space mem.Space
}

func (w *fakeWalker) Walk(core int, vaddr uint64, done func(Entry)) {
	w.walks++
	vpn := mem.PageNum(vaddr)
	w.eng.Schedule(w.delay, func() {
		done(Entry{VPN: vpn, Frame: vpn + 1000, Space: w.space})
	})
}

type dirLog struct {
	inserted []uint64
	evicted  []uint64
}

func (d *dirLog) TLBInserted(core int, e Entry) { d.inserted = append(d.inserted, e.Frame) }
func (d *dirLog) TLBEvicted(core int, e Entry)  { d.evicted = append(d.evicted, e.Frame) }

func newTestTLB(eng *sim.Engine, l1, l2 int, space mem.Space) (*TLB, *fakeWalker, *dirLog) {
	w := &fakeWalker{eng: eng, delay: 100, space: space}
	d := &dirLog{}
	return New(eng, 0, Config{L1Entries: l1, L2Entries: l2, L2Latency: 9}, w, d), w, d
}

func translate(t *testing.T, eng *sim.Engine, tl *TLB, vaddr uint64) Entry {
	t.Helper()
	var got *Entry
	tl.Translate(vaddr, func(e Entry) { got = &e })
	if !eng.RunUntil(func() bool { return got != nil }, 10000) {
		t.Fatal("translation never completed")
	}
	return *got
}

func TestL1HitIsSynchronous(t *testing.T) {
	eng := sim.New()
	tl, w, _ := newTestTLB(eng, 4, 16, mem.SpaceCache)
	translate(t, eng, tl, 0x5000)
	start := eng.Now()
	sync := false
	tl.Translate(0x5000, func(Entry) { sync = true })
	if !sync {
		t.Fatal("L1 TLB hit was not synchronous")
	}
	if eng.Now() != start {
		t.Fatal("L1 hit advanced time")
	}
	if w.walks != 1 {
		t.Fatalf("walks = %d, want 1", w.walks)
	}
	if tl.Stats().L1Hits != 1 {
		t.Fatalf("stats %+v", tl.Stats())
	}
}

func TestL2HitLatency(t *testing.T) {
	eng := sim.New()
	tl, _, _ := newTestTLB(eng, 1, 16, mem.SpaceCache)
	translate(t, eng, tl, 0x1000)
	translate(t, eng, tl, 0x2000) // evicts 0x1000 from the 1-entry L1
	start := eng.Now()
	e := translate(t, eng, tl, 0x1000) // L2 hit
	if eng.Now()-start != 9 {
		t.Fatalf("L2 hit latency = %d, want 9", eng.Now()-start)
	}
	if e.Frame != 1+1000 {
		t.Fatalf("frame = %d", e.Frame)
	}
	if tl.Stats().L2Hits != 1 {
		t.Fatalf("stats %+v", tl.Stats())
	}
}

func TestWalkCoalescing(t *testing.T) {
	eng := sim.New()
	tl, w, _ := newTestTLB(eng, 4, 16, mem.SpaceCache)
	n := 0
	tl.Translate(0x7000, func(Entry) { n++ })
	tl.Translate(0x7040, func(Entry) { n++ }) // same page
	eng.RunUntil(func() bool { return n == 2 }, 10000)
	if n != 2 || w.walks != 1 {
		t.Fatalf("n=%d walks=%d, want 2 walks=1", n, w.walks)
	}
	if tl.Stats().Coalesced != 1 {
		t.Fatalf("coalesced = %d", tl.Stats().Coalesced)
	}
}

func TestDirectoryTracksCacheEntries(t *testing.T) {
	eng := sim.New()
	tl, _, d := newTestTLB(eng, 2, 2, mem.SpaceCache)
	translate(t, eng, tl, 0)
	translate(t, eng, tl, mem.PageSize)
	if len(d.inserted) != 2 {
		t.Fatalf("inserted = %v", d.inserted)
	}
	// Third entry evicts from the 2-entry (inclusive) L2.
	translate(t, eng, tl, 2*mem.PageSize)
	if len(d.evicted) != 1 {
		t.Fatalf("evicted = %v", d.evicted)
	}
}

func TestDirectoryIgnoresPhysicalEntries(t *testing.T) {
	eng := sim.New()
	tl, _, d := newTestTLB(eng, 2, 4, mem.SpacePhysical)
	translate(t, eng, tl, 0)
	if len(d.inserted) != 0 {
		t.Fatal("physical-space entry reported to directory")
	}
}

func TestInvalidate(t *testing.T) {
	eng := sim.New()
	tl, w, d := newTestTLB(eng, 4, 16, mem.SpaceCache)
	translate(t, eng, tl, 0x9000)
	if !tl.Resident(9) {
		t.Fatal("entry not resident after walk")
	}
	if !tl.Invalidate(9) {
		t.Fatal("Invalidate missed a resident entry")
	}
	if tl.Resident(9) {
		t.Fatal("entry resident after Invalidate")
	}
	if len(d.evicted) != 1 {
		t.Fatalf("directory not notified on invalidate: %v", d.evicted)
	}
	translate(t, eng, tl, 0x9000)
	if w.walks != 2 {
		t.Fatalf("walks = %d, want 2 after invalidation", w.walks)
	}
	if tl.Invalidate(999) {
		t.Fatal("Invalidate matched a missing entry")
	}
}

// TestInclusionProperty: after any access sequence, every L1-resident entry
// is also L2-resident (the directory relies on L2 inclusivity).
func TestInclusionProperty(t *testing.T) {
	f := func(pages []uint8) bool {
		eng := sim.New()
		tl, _, _ := newTestTLB(eng, 4, 8, mem.SpaceCache)
		n := 0
		for _, p := range pages {
			tl.Translate(uint64(p)*mem.PageSize, func(Entry) { n++ })
		}
		eng.RunUntil(func() bool { return n == len(pages) }, 100000)
		if n != len(pages) {
			return false
		}
		for vpn := range indexed(tl.l1) {
			if _, i := tl.l2.find(vpn); i < 0 {
				return false
			}
		}
		return tl.l1.n <= 4 && tl.l2.n <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryBalanceProperty: inserted events minus evicted events equals
// current cache-space residency in the L2.
func TestDirectoryBalanceProperty(t *testing.T) {
	f := func(pages []uint8) bool {
		eng := sim.New()
		tl, _, d := newTestTLB(eng, 2, 4, mem.SpaceCache)
		n := 0
		for _, p := range pages {
			tl.Translate(uint64(p)*mem.PageSize, func(Entry) { n++ })
		}
		eng.RunUntil(func() bool { return n == len(pages) }, 100000)
		return len(d.inserted)-len(d.evicted) == tl.l2.n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// syncWalker completes every walk immediately, without allocating.
type syncWalker struct{}

func (syncWalker) Walk(core int, vaddr uint64, done func(Entry)) {
	vpn := mem.PageNum(vaddr)
	done(Entry{VPN: vpn, Frame: vpn, Space: mem.SpaceCache})
}

// nopDir is a Directory that only counts, so the allocation tests measure
// the TLB and not a logging directory.
type nopDir struct{ n int }

func (d *nopDir) TLBInserted(int, Entry) { d.n++ }
func (d *nopDir) TLBEvicted(int, Entry)  { d.n++ }

// TestL2HitDoesNotAllocate: at steady state an L1-miss/L2-hit translation
// (L1 refill over its LRU victim plus the deferred completion) allocates
// nothing.
func TestL2HitDoesNotAllocate(t *testing.T) {
	if check.Enabled {
		t.Skip("the invariants build allocates in its assertions")
	}
	eng := sim.New()
	cfg := DefaultConfig()
	tl := New(eng, 0, cfg, syncWalker{}, &nopDir{})
	// Twice the L1 in pages, all L2-resident: cycling through them misses
	// the L1 every time.
	pages := uint64(2 * cfg.L1Entries)
	for p := uint64(0); p < pages; p++ {
		tl.Translate(p*mem.PageSize, func(Entry) {})
	}
	n := 0
	done := func(Entry) { n++ }
	pred := func() bool { return n > 0 }
	p := uint64(0)
	run := func() {
		n = 0
		tl.Translate(p*mem.PageSize, done)
		p = (p + 1) % pages
		eng.RunUntil(pred, 100)
	}
	// Warm up long enough for the engine's event wheel to have grown every
	// bucket once (each run advances the clock by the L2 latency).
	for i := 0; i < 5000; i++ {
		run()
	}
	l2 := tl.Stats().L2Hits
	if a := testing.AllocsPerRun(1000, run); a != 0 {
		t.Fatalf("L2 hit: %v allocs/op, want 0", a)
	}
	if tl.Stats().L2Hits-l2 != 1001 {
		t.Fatalf("%d L2 hits in 1001 translations", tl.Stats().L2Hits-l2)
	}
}

// TestWalkInstallDoesNotAllocate: at steady state a page walk installing
// into a full TLB (L2 victim eviction, L1 invalidation, directory
// notification, L1 refill) allocates nothing.
func TestWalkInstallDoesNotAllocate(t *testing.T) {
	if check.Enabled {
		t.Skip("the invariants build allocates in its assertions")
	}
	eng := sim.New()
	cfg := DefaultConfig()
	tl := New(eng, 0, cfg, syncWalker{}, &nopDir{})
	done := func(Entry) {}
	p := uint64(0)
	pages := uint64(2 * cfg.L2Entries)
	run := func() {
		tl.Translate(p*mem.PageSize, done)
		p = (p + 1) % pages
	}
	for i := uint64(0); i < 2*pages; i++ {
		run()
	}
	walks := tl.Stats().Misses
	if a := testing.AllocsPerRun(1000, run); a != 0 {
		t.Fatalf("walk install: %v allocs/op, want 0", a)
	}
	if tl.Stats().Misses-walks != 1001 {
		t.Fatalf("%d walks in 1001 translations", tl.Stats().Misses-walks)
	}
}

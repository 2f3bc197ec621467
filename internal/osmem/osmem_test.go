package osmem

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestFirstTouchAllocation(t *testing.T) {
	m := New(2, 16)
	p1 := m.PTEOf(0, 100)
	p2 := m.PTEOf(0, 100)
	if p1 != p2 {
		t.Fatal("repeated PTEOf returned different PTEs")
	}
	p3 := m.PTEOf(1, 100) // same VPN, different core: distinct page
	if p3.Frame == p1.Frame {
		t.Fatal("different cores shared a physical frame")
	}
	if ppd := m.PPDOf(p1.Frame); ppd == nil || len(m.Mappings(p1.Frame)) != 1 {
		t.Fatal("PPD reverse mapping missing")
	}
}

func TestAllocateReleaseRoundTrip(t *testing.T) {
	m := New(1, 8)
	pte := m.PTEOf(0, 5)
	pfn := pte.Frame
	cfn := m.AllocateFrame(pfn)
	m.SetCached(pfn, cfn)
	if !pte.Cached || pte.Frame != cfn {
		t.Fatalf("PTE not updated: %+v", pte)
	}
	if m.FreeFrames() != 7 {
		t.Fatalf("free = %d, want 7", m.FreeFrames())
	}
	m.MarkDirty(cfn)
	gotPFN, dirty := m.ReleaseFrame(cfn)
	if gotPFN != pfn || !dirty {
		t.Fatalf("ReleaseFrame = (%d,%v), want (%d,true)", gotPFN, dirty, pfn)
	}
	if pte.Cached || pte.Frame != pfn {
		t.Fatalf("PTE not restored: %+v", pte)
	}
	if m.FreeFrames() != 8 {
		t.Fatalf("free = %d, want 8", m.FreeFrames())
	}
}

func TestFIFOOrder(t *testing.T) {
	m := New(1, 4)
	var cfns []uint64
	for i := uint64(0); i < 4; i++ {
		pte := m.PTEOf(0, i)
		cfns = append(cfns, m.AllocateFrame(pte.Frame))
	}
	for i, c := range cfns {
		if c != uint64(i) {
			t.Fatalf("allocation order %v, want sequential", cfns)
		}
	}
	victims, skips := m.EvictCandidates(2)
	if skips != 0 || len(victims) != 2 || victims[0] != 0 || victims[1] != 1 {
		t.Fatalf("victims = %v (skips %d), want [0 1]", victims, skips)
	}
}

func TestTLBDirectorySkip(t *testing.T) {
	m := New(1, 4)
	for i := uint64(0); i < 3; i++ {
		pte := m.PTEOf(0, i)
		cfn := m.AllocateFrame(pte.Frame)
		m.SetCached(pte.Frame, cfn)
	}
	m.TLBSet(0, 0, true) // frame 0 is TLB-resident
	victims, skips := m.EvictCandidates(3)
	if skips != 1 {
		t.Fatalf("skips = %d, want 1", skips)
	}
	for _, v := range victims {
		if v == 0 {
			t.Fatal("evicted a TLB-resident frame")
		}
	}
	m.TLBSet(0, 0, false)
	if m.CPDOf(0).TLBDir != 0 {
		t.Fatal("TLB directory bit not cleared")
	}
}

// TestShootdownTail: the shootdown fallback shoots down every mapping of
// each TLB-resident frame in the window at the tail, shared pages once per
// mapping, clears those frames' directories so the next scan takes them,
// and leaves the frames past the window and the tail itself alone.
func TestShootdownTail(t *testing.T) {
	m := New(2, 4)
	for vpn := uint64(0); vpn < 4; vpn++ {
		pte := m.PTEOf(0, vpn)
		cfn := m.AllocateFrame(pte.Frame)
		m.SetCached(pte.Frame, cfn)
		m.TLBSet(cfn, 0, true)
	}
	m.MapShared(1, 9, uint64(m.CPDOf(1).PFN))
	m.TLBSet(1, 1, true)
	m.TLBSet(2, 0, false) // frame 2 left the TLB on its own
	var shot []Mapping
	n := m.ShootdownTail(3, func(core int, vpn uint64) { shot = append(shot, Mapping{Core: core, VPN: vpn}) })
	if want := "[{0 0} {0 1} {1 9}]"; n != 3 || fmt.Sprint(shot) != want {
		t.Fatalf("ShootdownTail(3) = %d shootdowns %v, want 3 %s", n, shot, want)
	}
	if m.Tail() != 0 || m.CPDOf(3).TLBDir == 0 {
		t.Fatalf("tail %d, frame 3 directory %#x: the window's end moved", m.Tail(), m.CPDOf(3).TLBDir)
	}
	if victims, skips := m.EvictCandidates(3); len(victims) != 3 || skips != 0 {
		t.Fatalf("scan after the shootdowns: victims %v, %d skips, want frames 0-2 and none", victims, skips)
	}
	// A batch past the frame count covers one revolution: frame 3 once.
	shot = shot[:0]
	if n := m.ShootdownTail(10, func(core int, vpn uint64) { shot = append(shot, Mapping{Core: core, VPN: vpn}) }); n != 1 {
		t.Fatalf("ShootdownTail(10) on 4 frames = %d shootdowns %v, want 1", n, shot)
	}
}

// TestTLBDirectoryCoreLimit: the last core's residency bit fits the
// directory, and a Manager for one core more refuses to be built rather
// than silently drop that core's bits.
func TestTLBDirectoryCoreLimit(t *testing.T) {
	m := New(MaxCores, 1)
	m.TLBSet(0, MaxCores-1, true)
	if m.CPDOf(0).TLBDir == 0 {
		t.Fatalf("core %d's TLB directory bit was dropped", MaxCores-1)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("New(%d, 1) did not panic", MaxCores+1)
		}
	}()
	New(MaxCores+1, 1)
}

func TestHeadSkipsValidFrames(t *testing.T) {
	m := New(1, 4)
	// Fill all 4, evict 1..3 but leave 0 valid (as if TLB-resident kept
	// it), then wrap: the head must skip frame 0.
	for i := uint64(0); i < 4; i++ {
		pte := m.PTEOf(0, i)
		m.AllocateFrame(pte.Frame)
		m.SetCached(pte.Frame, uint64(i))
	}
	for i := uint64(1); i < 4; i++ {
		m.ReleaseFrame(i)
	}
	pte := m.PTEOf(0, 10)
	cfn := m.AllocateFrame(pte.Frame)
	if cfn == 0 {
		t.Fatal("allocated a still-valid frame")
	}
	if cfn != 1 {
		t.Fatalf("cfn = %d, want 1", cfn)
	}
}

func TestSharedPage(t *testing.T) {
	m := New(2, 8)
	pte0 := m.PTEOf(0, 7)
	pfn := pte0.Frame
	pte1 := m.MapShared(1, 7, pfn)
	if pte1.Frame != pfn {
		t.Fatalf("shared PTE frame = %d, want %d", pte1.Frame, pfn)
	}
	cfn := m.AllocateFrame(pfn)
	m.SetCached(pfn, cfn)
	if !pte0.Cached || !pte1.Cached || pte0.Frame != cfn || pte1.Frame != cfn {
		t.Fatal("shared-page caching did not update all PTEs")
	}
	// A third sharer mapped while the page is cached resolves to its CFN.
	pte2 := m.MapShared(0, 8, pfn)
	if !pte2.Cached || pte2.Frame != cfn {
		t.Fatalf("third sharer of a cached page: PTE = %+v, want cached CFN %d", *pte2, cfn)
	}
	m.ReleaseFrame(cfn)
	for i, pte := range []*PTE{pte0, pte1, pte2} {
		if pte.Cached || pte.Frame != pfn {
			t.Fatalf("shared-page eviction did not restore PTE %d: %+v", i, *pte)
		}
	}
}

func TestMapSharedToCachedPage(t *testing.T) {
	m := New(2, 8)
	pte0 := m.PTEOf(0, 3)
	pfn := pte0.Frame
	cfn := m.AllocateFrame(pfn)
	m.SetCached(pfn, cfn)
	pte1 := m.MapShared(1, 3, pfn)
	if !pte1.Cached || pte1.Frame != cfn {
		t.Fatalf("sharing a cached page: PTE = %+v, want cached CFN %d", pte1, cfn)
	}
}

// TestCPDsAllocatedOnFirstUse: a Manager holds no CPD array until a cache
// frame is first used, and reports the configured frames, all free, before
// that; each CPD operation allocates the whole array.
func TestCPDsAllocatedOnFirstUse(t *testing.T) {
	m := New(2, 16)
	pfn := m.PTEOf(0, 1).Frame
	m.MapShared(1, 2, pfn)
	m.PPDOf(pfn).Walks++
	if m.CacheFrames() != 16 || m.FreeFrames() != 16 || m.ValidFrames() != 0 {
		t.Fatalf("fresh Manager: %d frames, %d free, %d valid, want 16, 16, 0",
			m.CacheFrames(), m.FreeFrames(), m.ValidFrames())
	}
	if err := m.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{5, 16} {
		if victims, skips := m.EvictCandidates(batch); len(victims) != 0 || skips != 0 {
			t.Fatalf("EvictCandidates(%d) on free frames = %v, %d", batch, victims, skips)
		}
	}
	if m.Tail() != 5 {
		t.Fatalf("tail = %d after scanning 5 then 16 frames, want 5", m.Tail())
	}
	if m.cpds != nil {
		t.Fatal("CPD array allocated before any cache frame was used")
	}
	for _, use := range []struct {
		name string
		f    func(m *Manager)
	}{
		{"AllocateFrame", func(m *Manager) { m.AllocateFrame(m.PTEOf(0, 0).Frame) }},
		{"CPDOf", func(m *Manager) { m.CPDOf(7) }},
		{"MarkDirty", func(m *Manager) { m.MarkDirty(3) }},
		{"TLBSet", func(m *Manager) { m.TLBSet(3, 1, true) }},
	} {
		m := New(2, 8)
		use.f(m)
		if len(m.cpds) != 8 {
			t.Errorf("after %s: %d CPDs, want 8", use.name, len(m.cpds))
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "releasing free cache frame") {
			t.Fatalf("ReleaseFrame on a fresh Manager: recovered %v", r)
		}
	}()
	New(1, 8).ReleaseFrame(2)
}

func TestExhaustionPanics(t *testing.T) {
	m := New(1, 1)
	pte := m.PTEOf(0, 0)
	m.AllocateFrame(pte.Frame)
	defer func() {
		if recover() == nil {
			t.Fatal("allocation with zero free frames did not panic")
		}
	}()
	m.AllocateFrame(m.PTEOf(0, 1).Frame)
}

// TestFreeCountInvariant: any interleaving of allocations and batch
// evictions keeps FreeFrames consistent with the CPD valid bits, and PTEs
// always point at either their PFN (uncached) or a valid CFN (cached).
func TestFreeCountInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		m := New(1, 32)
		next := uint64(0)
		for _, op := range ops {
			if op%4 != 0 || m.FreeFrames() == 0 {
				if m.FreeFrames() == 0 {
					victims, _ := m.EvictCandidates(8)
					for _, v := range victims {
						m.ReleaseFrame(v)
					}
					continue
				}
			}
			if op%4 == 3 && m.FreeFrames() < 32 {
				victims, _ := m.EvictCandidates(4)
				for _, v := range victims {
					m.ReleaseFrame(v)
				}
				continue
			}
			pte := m.PTEOf(0, next)
			next++
			cfn := m.AllocateFrame(pte.Frame)
			m.SetCached(pte.Frame, cfn)
		}
		if m.ValidFrames()+m.FreeFrames() != 32 {
			return false
		}
		// Every cached PTE must point at a valid CPD with matching PFN.
		for vpn := uint64(0); vpn < next; vpn++ {
			pte := m.PTEOf(0, vpn)
			if pte.Cached {
				cpd := m.CPDOf(pte.Frame)
				if !cpd.Valid {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

package osmem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// mapManager is the reference model of Manager: one heap-allocated PTE per
// page inside per-core maps, one heap-allocated PPD per frame inside a map,
// each PPD carrying its reverse mappings, and 64-bit PFNs in the CPDs.
// Manager must behave exactly like it.
type mapManager struct {
	pageTables []map[uint64]*PTE
	ppds       map[uint64]*refPPD
	nextPFN    uint64
	cpds       []refCPD
	head, tail uint64
	numFree    uint64
}

type refPPD struct {
	Cached, NonCacheable, Dirty bool
	Walks                       uint64
	Reverse                     []Mapping
}

type refCPD struct {
	Valid, DirtyInCache bool
	PFN                 uint64
	TLBDir              uint64
}

func newMapManager(cores int, cacheFrames uint64) *mapManager {
	m := &mapManager{
		pageTables: make([]map[uint64]*PTE, cores),
		ppds:       make(map[uint64]*refPPD),
		cpds:       make([]refCPD, cacheFrames),
		numFree:    cacheFrames,
	}
	for i := range m.pageTables {
		m.pageTables[i] = make(map[uint64]*PTE)
	}
	return m
}

func (m *mapManager) PTEOf(core int, vpn uint64) *PTE {
	pt := m.pageTables[core]
	if pte, ok := pt[vpn]; ok {
		return pte
	}
	pfn := m.nextPFN
	m.nextPFN++
	pte := &PTE{Frame: pfn, Present: true}
	pt[vpn] = pte
	m.ppds[pfn] = &refPPD{Reverse: []Mapping{{Core: core, VPN: vpn}}}
	return pte
}

func (m *mapManager) MapShared(core int, vpn uint64, pfn uint64) *PTE {
	ppd := m.ppds[pfn]
	pte := &PTE{Frame: pfn, Present: true, Cached: ppd.Cached, NonCacheable: ppd.NonCacheable}
	if ppd.Cached {
		for cfn := range m.cpds {
			if m.cpds[cfn].Valid && m.cpds[cfn].PFN == pfn {
				pte.Frame = uint64(cfn)
				break
			}
		}
	}
	m.pageTables[core][vpn] = pte
	ppd.Reverse = append(ppd.Reverse, Mapping{Core: core, VPN: vpn})
	return pte
}

func (m *mapManager) AllocateFrame(pfn uint64) uint64 {
	n := uint64(len(m.cpds))
	for m.cpds[m.head].Valid {
		m.head = (m.head + 1) % n
	}
	cfn := m.head
	m.head = (m.head + 1) % n
	m.cpds[cfn] = refCPD{Valid: true, PFN: pfn}
	m.numFree--
	return cfn
}

func (m *mapManager) EvictCandidates(batch int) (victims []uint64, tlbSkips int) {
	n := uint64(len(m.cpds))
	if uint64(batch) > n {
		batch = int(n)
	}
	for i := 0; i < batch; i++ {
		cfn := m.tail
		m.tail = (m.tail + 1) % n
		cpd := &m.cpds[cfn]
		if !cpd.Valid {
			continue
		}
		if cpd.TLBDir != 0 {
			tlbSkips++
			continue
		}
		victims = append(victims, cfn)
	}
	return victims, tlbSkips
}

func (m *mapManager) ReleaseFrame(cfn uint64) (pfn uint64, dirty bool) {
	cpd := &m.cpds[cfn]
	pfn, dirty = cpd.PFN, cpd.DirtyInCache
	ppd := m.ppds[pfn]
	for _, mp := range ppd.Reverse {
		pte := m.pageTables[mp.Core][mp.VPN]
		pte.Frame = pfn
		pte.Cached = false
		pte.DirtyInCache = false
	}
	ppd.Cached = false
	cpd.Valid = false
	cpd.DirtyInCache = false
	m.numFree++
	return pfn, dirty
}

func (m *mapManager) SetCached(pfn, cfn uint64) {
	ppd := m.ppds[pfn]
	for _, mp := range ppd.Reverse {
		pte := m.pageTables[mp.Core][mp.VPN]
		pte.Frame = cfn
		pte.Cached = true
	}
	ppd.Cached = true
}

func (m *mapManager) MarkDirty(cfn uint64) { m.cpds[cfn].DirtyInCache = true }

func (m *mapManager) TLBSet(cfn uint64, core int, resident bool) {
	if resident {
		m.cpds[cfn].TLBDir |= 1 << uint(core)
	} else {
		m.cpds[cfn].TLBDir &^= 1 << uint(core)
	}
}

// compareManager reports the first difference between m and the reference:
// every PTE, PPD (with its mappings) and CPD, and the free queue's head,
// tail and count.
func compareManager(m *Manager, o *mapManager) error {
	for core, pt := range o.pageTables {
		if len(m.pageTables[core]) != len(pt) {
			return fmt.Errorf("core %d: %d PTEs, reference %d", core, len(m.pageTables[core]), len(pt))
		}
		for vpn, want := range pt {
			i, ok := m.pageTables[core][vpn]
			if !ok {
				return fmt.Errorf("core %d vpn %d: no PTE", core, vpn)
			}
			if got := *m.ptes.at(uint64(i)); got != *want {
				return fmt.Errorf("core %d vpn %d: PTE %+v, reference %+v", core, vpn, got, *want)
			}
		}
	}
	if m.descs.n != o.nextPFN {
		return fmt.Errorf("%d PFNs, reference %d", m.descs.n, o.nextPFN)
	}
	for pfn := uint64(0); pfn < o.nextPFN; pfn++ {
		got, want := m.PPDOf(pfn), o.ppds[pfn]
		if got.Cached != want.Cached || got.NonCacheable != want.NonCacheable ||
			got.Dirty != want.Dirty || got.Walks != want.Walks {
			return fmt.Errorf("pfn %d: PPD %+v, reference %+v", pfn, *got, *want)
		}
		ms := m.Mappings(pfn)
		if len(ms) != len(want.Reverse) {
			return fmt.Errorf("pfn %d: mappings %v, reference %v", pfn, ms, want.Reverse)
		}
		for i := range ms {
			if ms[i] != want.Reverse[i] {
				return fmt.Errorf("pfn %d: mappings %v, reference %v", pfn, ms, want.Reverse)
			}
		}
	}
	for cfn := range o.cpds {
		var got CPD // every frame is free before the array exists
		if m.cpds != nil {
			got = m.cpds[cfn]
		}
		want := o.cpds[cfn]
		if got.Valid != want.Valid || got.DirtyInCache != want.DirtyInCache ||
			uint64(got.PFN) != want.PFN || got.TLBDir != want.TLBDir {
			return fmt.Errorf("cfn %d: CPD %+v, reference %+v", cfn, got, want)
		}
	}
	if m.head != o.head || m.tail != o.tail || m.numFree != o.numFree {
		return fmt.Errorf("free queue head/tail/free %d/%d/%d, reference %d/%d/%d",
			m.head, m.tail, m.numFree, o.head, o.tail, o.numFree)
	}
	return nil
}

// TestManagerMatchesMapOracle drives Manager and the map-based reference
// with the same random sequence of first touches on several cores, shared
// mappings, frame allocations, dirty marks, TLB-directory updates, evictions
// and selective-caching walk counts, comparing all their state after every
// step. The larger page range crosses several arena chunks. Half the shared
// mappings go to a cached frame, so some map a third sharer of a cached
// frame, whose CFN must come from the earlier mappings.
func TestManagerMatchesMapOracle(t *testing.T) {
	const cores, frames = 3, 12
	thirdSharers := 0
	for _, pages := range []uint64{16, 48, 1500} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("pages=%d/seed=%d", pages, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				m, o := New(cores, frames), newMapManager(cores, frames)
				for step := 0; step < 3000; step++ {
					core := rng.Intn(cores)
					vpn := uint64(rng.Int63n(int64(pages)))
					op := rng.Intn(16)
					switch {
					case op < 5 || o.nextPFN == 0:
						if got, want := *m.PTEOf(core, vpn), *o.PTEOf(core, vpn); got != want {
							t.Fatalf("step %d: PTEOf(%d, %d) = %+v, reference %+v", step, core, vpn, got, want)
						}
					case op < 7:
						if _, ok := o.pageTables[core][vpn]; ok {
							continue
						}
						pfn := uint64(rng.Int63n(int64(o.nextPFN)))
						if cpd := o.cpds[rng.Intn(frames)]; cpd.Valid && rng.Intn(2) == 0 {
							pfn = cpd.PFN
						}
						if o.ppds[pfn].Cached && len(o.ppds[pfn].Reverse) >= 2 {
							thirdSharers++
						}
						if got, want := *m.MapShared(core, vpn, pfn), *o.MapShared(core, vpn, pfn); got != want {
							t.Fatalf("step %d: MapShared(%d, %d, %d) = %+v, reference %+v", step, core, vpn, pfn, got, want)
						}
					case op < 10:
						pfn := uint64(rng.Int63n(int64(o.nextPFN)))
						if o.ppds[pfn].Cached || o.numFree == 0 {
							continue
						}
						got, want := m.AllocateFrame(pfn), o.AllocateFrame(pfn)
						if got != want {
							t.Fatalf("step %d: AllocateFrame(%d) = %d, reference %d", step, pfn, got, want)
						}
						m.SetCached(pfn, got)
						o.SetCached(pfn, want)
					case op < 11:
						cfn := uint64(rng.Intn(frames))
						if !o.cpds[cfn].Valid {
							continue
						}
						m.MarkDirty(cfn)
						o.MarkDirty(cfn)
					case op < 13:
						cfn := uint64(rng.Intn(frames))
						resident := rng.Intn(3) != 0
						m.TLBSet(cfn, core, resident)
						o.TLBSet(cfn, core, resident)
					case op < 15:
						batch := 1 + rng.Intn(frames+2)
						gv, gs := m.EvictCandidates(batch)
						wv, ws := o.EvictCandidates(batch)
						if fmt.Sprint(gv, gs) != fmt.Sprint(wv, ws) {
							t.Fatalf("step %d: EvictCandidates(%d) = %v, %d, reference %v, %d", step, batch, gv, gs, wv, ws)
						}
						for _, cfn := range gv {
							gp, gd := m.ReleaseFrame(cfn)
							wp, wd := o.ReleaseFrame(cfn)
							if gp != wp || gd != wd {
								t.Fatalf("step %d: ReleaseFrame(%d) = %d, %v, reference %d, %v", step, cfn, gp, gd, wp, wd)
							}
						}
					default:
						pfn := uint64(rng.Int63n(int64(o.nextPFN)))
						m.PPDOf(pfn).Walks++
						o.ppds[pfn].Walks++
					}
					if err := compareManager(m, o); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			})
		}
	}
	if thirdSharers == 0 {
		t.Fatal("no step mapped a third sharer of a cached frame")
	}
}

// TestHeldPTESeesLaterUpdates: the front-end reads a PTE through a pointer
// taken before the cache-frame mutex wait, while later walks add PTEs. A
// pointer held across more than two chunks of later allocations must still
// see SetCached and ReleaseFrame.
func TestHeldPTESeesLaterUpdates(t *testing.T) {
	m := New(2, 4)
	held := m.PTEOf(0, 0)
	pfn := held.Frame
	vpn := uint64(1)
	touch := func(n uint64) {
		for end := vpn + n; vpn < end; vpn++ {
			m.PTEOf(int(vpn%2), vpn)
		}
	}
	touch(3 << chunkBits)
	cfn := m.AllocateFrame(pfn)
	m.SetCached(pfn, cfn)
	if !held.Cached || held.Frame != cfn {
		t.Fatalf("held PTE after SetCached: %+v, want cached at CFN %d", *held, cfn)
	}
	touch(3 << chunkBits)
	m.ReleaseFrame(cfn)
	if held.Cached || held.Frame != pfn {
		t.Fatalf("held PTE after ReleaseFrame: %+v, want uncached at PFN %d", *held, pfn)
	}
	if got := m.PTEOf(0, 0); got != held {
		t.Fatal("PTEOf returned a different PTE after the arena grew")
	}
}

// TestPTELimitPanics: CPD.PFN and the page tables' PTE indices are 32 bits,
// so the Manager refuses the entry that would not fit instead of wrapping.
func TestPTELimitPanics(t *testing.T) {
	m := New(1, 1)
	m.ptes.n = math.MaxUint32
	defer func() {
		if recover() == nil {
			t.Fatal("PTEOf past the 32-bit PTE index did not panic")
		}
	}()
	m.PTEOf(0, 1)
}

// TestDescriptorSizes pins the dense descriptors at 16 bytes each.
func TestDescriptorSizes(t *testing.T) {
	for _, d := range []struct {
		name string
		size uintptr
	}{{"PTE", unsafe.Sizeof(PTE{})}, {"PPD", unsafe.Sizeof(PPD{})}, {"CPD", unsafe.Sizeof(CPD{})}} {
		if d.size != 16 {
			t.Errorf("%s is %d bytes, want 16", d.name, d.size)
		}
	}
}

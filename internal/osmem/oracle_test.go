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
	var mapped uint64
	for core, pt := range o.pageTables {
		mapped += uint64(len(pt))
		for vpn, want := range pt {
			_, e := m.find(m.owner(core, vpn))
			if e == 0 {
				return fmt.Errorf("core %d vpn %d: no PTE", core, vpn)
			}
			if got := *m.ptes.at(uint64(e - 1)); got != *want {
				return fmt.Errorf("core %d vpn %d: PTE %+v, reference %+v", core, vpn, got, *want)
			}
		}
	}
	// Each mapped page found a PTE of its own (a PTE's owner word names one
	// page), so equal counts leave no PTE that the reference lacks.
	if m.ptes.n != mapped {
		return fmt.Errorf("%d PTEs, reference %d", m.ptes.n, mapped)
	}
	if m.descs.n != o.nextPFN {
		return fmt.Errorf("%d PFNs, reference %d", m.descs.n, o.nextPFN)
	}
	for pfn := uint64(0); pfn < o.nextPFN; pfn++ {
		got, want := m.PPDOf(pfn), o.ppds[pfn]
		if got.Cached != want.Cached || got.NonCacheable != want.NonCacheable ||
			got.Dirty != want.Dirty || uint64(got.Walks) != want.Walks {
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

// oracleCores and oracleFrames size the Managers the oracle tests compare.
const oracleCores, oracleFrames = 3, 12

// picker draws the random choices of oracleSteps; *rand.Rand is one.
type picker interface {
	Intn(n int) int
	Int63n(n int64) int64
}

// oracleSteps drives m and the reference o with the same steps sequence of
// first touches on several cores, shared mappings, frame allocations, dirty
// marks, TLB-directory updates, evictions and selective-caching walk
// counts, all drawn from r, and compares all their state after every step.
// A step touches page vpnOf(n) for a draw n below pages. It returns the
// number of shared mappings of a cached frame that already had two
// mappings, whose CFN must come from the earlier ones.
func oracleSteps(t testing.TB, m *Manager, o *mapManager, r picker, steps int, pages uint64, vpnOf func(uint64) uint64) (thirdSharers int) {
	t.Helper()
	for step := 0; step < steps; step++ {
		core := r.Intn(oracleCores)
		vpn := vpnOf(uint64(r.Int63n(int64(pages))))
		op := r.Intn(16)
		switch {
		case op < 5 || o.nextPFN == 0:
			if got, want := *m.PTEOf(core, vpn), *o.PTEOf(core, vpn); got != want {
				t.Fatalf("step %d: PTEOf(%d, %d) = %+v, reference %+v", step, core, vpn, got, want)
			}
		case op < 7:
			if _, ok := o.pageTables[core][vpn]; ok {
				continue
			}
			pfn := uint64(r.Int63n(int64(o.nextPFN)))
			if cpd := o.cpds[r.Intn(oracleFrames)]; cpd.Valid && r.Intn(2) == 0 {
				pfn = cpd.PFN
			}
			if o.ppds[pfn].Cached && len(o.ppds[pfn].Reverse) >= 2 {
				thirdSharers++
			}
			if got, want := *m.MapShared(core, vpn, pfn), *o.MapShared(core, vpn, pfn); got != want {
				t.Fatalf("step %d: MapShared(%d, %d, %d) = %+v, reference %+v", step, core, vpn, pfn, got, want)
			}
		case op < 10:
			pfn := uint64(r.Int63n(int64(o.nextPFN)))
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
			cfn := uint64(r.Intn(oracleFrames))
			if !o.cpds[cfn].Valid {
				continue
			}
			m.MarkDirty(cfn)
			o.MarkDirty(cfn)
		case op < 13:
			cfn := uint64(r.Intn(oracleFrames))
			resident := r.Intn(3) != 0
			m.TLBSet(cfn, core, resident)
			o.TLBSet(cfn, core, resident)
		case op < 15:
			batch := 1 + r.Intn(oracleFrames+2)
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
			pfn := uint64(r.Int63n(int64(o.nextPFN)))
			m.PPDOf(pfn).CountWalk()
			o.ppds[pfn].Walks++
		}
		if err := compareManager(m, o); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	return thirdSharers
}

// scatteredVPNs returns n distinct page numbers below 2^51, spread over the
// whole range, so that neighbouring draws share no high bits.
func scatteredVPNs(n int) []uint64 {
	rng := rand.New(rand.NewSource(51))
	seen := make(map[uint64]bool, n)
	vpns := make([]uint64, 0, n)
	for len(vpns) < n {
		v := uint64(rng.Int63n(1 << 51))
		if len(vpns) == 0 {
			v = 1<<51 - 1 // the widest
		}
		if !seen[v] {
			seen[v] = true
			vpns = append(vpns, v)
		}
	}
	return vpns
}

// TestManagerMatchesMapOracle runs oracleSteps over dense page ranges and
// a scattered one. The larger ranges cross several arena chunks and grow
// the page-table index through several doublings. Half the shared mappings
// go to a cached frame, so some map a third sharer of a cached frame.
func TestManagerMatchesMapOracle(t *testing.T) {
	thirdSharers := 0
	scattered := scatteredVPNs(1500)
	dense := func(n uint64) uint64 { return n }
	for _, row := range []struct {
		name  string
		pages uint64
		vpnOf func(uint64) uint64
	}{
		{"pages=16", 16, dense},
		{"pages=48", 48, dense},
		{"pages=1500", 1500, dense},
		{"scattered=1500", 1500, func(n uint64) uint64 { return scattered[n] }},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", row.name, seed), func(t *testing.T) {
				m, o := New(oracleCores, oracleFrames), newMapManager(oracleCores, oracleFrames)
				thirdSharers += oracleSteps(t, m, o, rand.New(rand.NewSource(seed)), 3000, row.pages, row.vpnOf)
				if row.pages == 1500 && len(m.index) < 8<<indexInitBits {
					t.Fatalf("%d PTEs left the index at %d slots, want at least three doublings", m.ptes.n, len(m.index))
				}
			})
		}
	}
	if thirdSharers == 0 {
		t.Fatal("no step mapped a third sharer of a cached frame")
	}
}

// bytePicker draws oracleSteps' choices from fuzz input, and zeros once
// the input runs out.
type bytePicker []byte

func (b *bytePicker) next() uint64 {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return uint64(v)
}

func (b *bytePicker) Intn(n int) int { return int(b.next() % uint64(n)) }

// Int63n reads one byte for a small range and eight for a larger one.
func (b *bytePicker) Int63n(n int64) int64 {
	v := b.next()
	if n > 256 {
		for i := 0; i < 7; i++ {
			v = v<<8 | b.next()
		}
	}
	return int64(v % uint64(n))
}

// FuzzManagerMatchesMapOracle runs oracleSteps on fuzzed choices. A page
// draw's low bit picks a dense page (the draw halved) or a scattered VPN
// below 2^51 (the draw halved, masked to 51 bits), so fuzzing can both
// revisit pages and spread them.
func FuzzManagerMatchesMapOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 200, 2000} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytePicker(data)
		m, o := New(oracleCores, oracleFrames), newMapManager(oracleCores, oracleFrames)
		vpnOf := func(n uint64) uint64 {
			if n&1 == 0 {
				return n >> 1 & 63
			}
			return n >> 1 & (1<<51 - 1)
		}
		// compareManager reads every PTE after each step: cap the steps so
		// a long input stays fast.
		oracleSteps(t, m, o, &r, min(len(data)/3, 300), math.MaxInt64, vpnOf)
	})
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

// TestOwnerLimitPanics: an owner word holds a core below the Manager's
// count and a 58-bit VPN; a page outside either panics instead of aliasing
// another core's page, and the widest VPN maps.
func TestOwnerLimitPanics(t *testing.T) {
	m := New(2, 1)
	if got := m.Mappings(m.PTEOf(1, vpnMask).Frame); got[0] != (Mapping{Core: 1, VPN: vpnMask}) {
		t.Fatalf("widest page maps back as %+v", got[0])
	}
	for _, p := range []struct {
		core int
		vpn  uint64
	}{{0, vpnMask + 1}, {2, 0}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PTEOf(%d, %#x) did not panic", p.core, p.vpn)
				}
			}()
			m.PTEOf(p.core, p.vpn)
		}()
	}
}

// TestMapSharedOfMappedPagePanics: remapping a mapped page would leave the
// old frame's reverse mapping naming a PTE no page table reaches.
func TestMapSharedOfMappedPagePanics(t *testing.T) {
	m := New(2, 1)
	pfn := m.PTEOf(0, 1).Frame
	m.PTEOf(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("MapShared over a mapped page did not panic")
		}
	}()
	m.MapShared(1, 2, pfn)
}

// TestWalkCountSaturates: the 32-bit walk count stops at its maximum
// instead of wrapping to zero, which would uncache a page's eligibility.
func TestWalkCountSaturates(t *testing.T) {
	p := PPD{Walks: math.MaxUint32 - 1}
	for i := 0; i < 3; i++ {
		if got := p.CountWalk(); got != math.MaxUint32 {
			t.Fatalf("walk %d: count %d, want %d", i, got, uint32(math.MaxUint32))
		}
	}
}

// TestMappingsDoesNotAllocate: the eviction daemon reads every victim's
// reverse mappings, shared or not, without allocating.
func TestMappingsDoesNotAllocate(t *testing.T) {
	m := New(2, 1)
	solo := m.PTEOf(0, 1).Frame
	shared := m.PTEOf(0, 2).Frame
	m.MapShared(1, 2, shared)
	var n int
	if a := testing.AllocsPerRun(100, func() {
		n = len(m.Mappings(solo)) + len(m.Mappings(shared))
	}); a != 0 || n != 3 {
		t.Fatalf("Mappings: %v allocs/op, %d mappings, want 0 and 3", a, n)
	}
}

// TestDescriptorSizes pins the dense descriptors: PTEs and CPDs at 16
// bytes, PPDs at 8.
func TestDescriptorSizes(t *testing.T) {
	for _, d := range []struct {
		name       string
		size, want uintptr
	}{
		{"PTE", unsafe.Sizeof(PTE{}), 16},
		{"PPD", unsafe.Sizeof(PPD{}), 8},
		{"CPD", unsafe.Sizeof(CPD{}), 16},
	} {
		if d.size != d.want {
			t.Errorf("%s is %d bytes, want %d", d.name, d.size, d.want)
		}
	}
}

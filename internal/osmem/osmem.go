// Package osmem implements the operating-system memory-management substrate
// shared by the OS-managed DRAM cache schemes (TDC and NOMAD): per-process
// page tables with the paper's PTE extension (cached / non-cacheable bits, a
// frame field holding either a PFN or a CFN), physical page descriptors
// (PPDs) with reverse mappings, cache page descriptors (CPDs) with valid,
// dirty-in-cache, and TLB-directory fields, and the circular free queue with
// head/tail pointers from which cache frames are allocated FIFO (Fig. 5).
//
// Everything here is functional state; timing (the 400-cycle handler
// latency, mutex contention, copy time) is modeled by the scheme front-ends
// that drive these structures.
package osmem

import (
	"fmt"
	"math"

	"nomad/internal/check"
)

// PTE is a page-table entry with the NOMAD extension (Fig. 4). Frame holds a
// PFN when Cached is false and a CFN when Cached is true.
type PTE struct {
	Frame        uint64
	Present      bool
	Cached       bool // C bit
	NonCacheable bool // NC bit
	Dirty        bool // conventional dirty (in off-package memory)
	DirtyInCache bool // DC bit
}

// Mapping identifies one PTE by its owner: (process/core, virtual page).
type Mapping struct {
	Core int
	VPN  uint64
}

// PPD is a physical page descriptor, extended with the cached (C) and
// non-cacheable (NC) bits (Fig. 4). The reverse mappings that let the
// eviction daemon find every PTE of a physical frame (Algorithm 2, lines
// 12-15), including shared pages, are kept beside it: see Manager.Mappings.
type PPD struct {
	// Walks counts page-table walks that found the page uncached; the
	// selective-caching policy (§V: Thermostat/KLOCs-style mechanisms the
	// OS-managed design can adopt) caches a page only after a threshold
	// of such touches. CountWalk saturates it at math.MaxUint32, past any
	// count a run can reach.
	Walks        uint32
	Cached       bool
	NonCacheable bool
	Dirty        bool
}

// CountWalk counts one walk of the uncached page and returns the count.
func (p *PPD) CountWalk() uint32 {
	if p.Walks < math.MaxUint32 {
		p.Walks++
	}
	return p.Walks
}

// CPD is a cache page descriptor (Fig. 4): the state of one DRAM-cache
// frame.
type CPD struct {
	// TLBDir has one bit per core: whether that core's TLB holds a
	// translation to this cache frame (used for shootdown avoidance).
	TLBDir       uint64
	PFN          uint32 // original physical frame, for reclamation
	Valid        bool
	DirtyInCache bool // DC bit: writeback required on eviction
}

// MaxCores is the most cores a Manager tracks: TLBDir has one bit per core.
const MaxCores = 64

// chunkBits sizes the chunks of the descriptor arenas: 1024 entries.
const (
	chunkBits = 10
	chunkMask = 1<<chunkBits - 1
)

// An owner word packs a PTE's (core, VPN) as core<<vpnBits | VPN: MaxCores
// takes the top six bits.
const (
	vpnBits = 58
	vpnMask = 1<<vpnBits - 1
)

// indexInitBits sizes the page-table index of a new Manager: 64 slots.
const indexInitBits = 6

// arena is append-only storage in fixed-size chunks. An element never moves
// once added, so a pointer into the arena stays valid while it grows: the
// front-end holds a *PTE across the cache-frame mutex wait, during which
// other walks add PTEs.
type arena[T any] struct {
	chunks [][]T
	n      uint64
}

func (a *arena[T]) at(i uint64) *T { return &a.chunks[i>>chunkBits][i&chunkMask] }

// add appends v and returns its index.
func (a *arena[T]) add(v T) uint64 {
	if a.n&chunkMask == 0 {
		a.chunks = append(a.chunks, make([]T, 1<<chunkBits))
	}
	i := a.n
	*a.at(i) = v
	a.n++
	return i
}

// Manager owns page tables, descriptors, and the cache-frame free queue.
// PTEs are numbered densely from 0 in mapping order, and PFNs likewise, so
// the per-PTE and per-frame state is indexed by number rather than looked
// up.
type Manager struct {
	cores int
	// index holds every core's page table: a power-of-two table of PTE
	// number+1 (0 = empty), probed linearly from the owner word's Fibonacci
	// hash and doubled at 3/4 load. Nothing is ever unmapped, so it needs no
	// deletion.
	index  []uint32
	shift  uint          // 64 - log2(len(index))
	ptes   arena[PTE]    // PTE number -> entry
	owners arena[uint64] // PTE number -> owner word

	descs arena[PPD]    // PFN -> physical page descriptor
	first arena[uint32] // PFN -> the PTE number of the frame's first mapping
	// shared holds every mapping of a frame that MapShared mapped a second
	// time, the first one first; other frames have only their first.
	shared map[uint64][]Mapping
	// one is what Mappings returns for a frame mapped once.
	one [1]Mapping

	// cpds maps a CFN to its descriptor (dense: the DC is small). CPDOf
	// allocates it on first use, so a machine whose scheme never caches a
	// page (TiD, Baseline) never holds it; until then every frame is free.
	cpds    []CPD
	frames  uint64
	head    uint64
	tail    uint64
	numFree uint64
}

// New creates a Manager for the given core count and DRAM-cache capacity in
// frames. Callers reject more than MaxCores cores before building one.
func New(cores int, cacheFrames uint64) *Manager {
	if cores > MaxCores {
		panic(fmt.Sprintf("osmem: %d cores exceed MaxCores (%d)", cores, MaxCores))
	}
	return &Manager{
		cores:   cores,
		index:   make([]uint32, 1<<indexInitBits),
		shift:   64 - indexInitBits,
		shared:  make(map[uint64][]Mapping),
		frames:  cacheFrames,
		numFree: cacheFrames,
	}
}

// CacheFrames returns the DRAM-cache capacity in frames.
func (m *Manager) CacheFrames() uint64 { return m.frames }

// FreeFrames returns the current number of free cache frames.
func (m *Manager) FreeFrames() uint64 { return m.numFree }

// Tail exposes the free queue's tail pointer, where eviction scans start.
func (m *Manager) Tail() uint64 { return m.tail }

// PTEOf returns the PTE for (core, vpn), demand-allocating the physical
// frame on first touch (conventional first-touch allocation policy). The
// PTE never moves: the pointer stays valid for the Manager's lifetime.
func (m *Manager) PTEOf(core int, vpn uint64) *PTE {
	key := m.owner(core, vpn)
	p, e := m.find(key)
	if e != 0 {
		return m.ptes.at(uint64(e - 1))
	}
	pte := m.newPTE(p, key, PTE{Frame: m.descs.n, Present: true})
	m.descs.add(PPD{})
	m.first.add(uint32(m.ptes.n - 1))
	return pte
}

// owner packs (core, vpn) into an owner word. It panics on a core the
// Manager was not built for or a VPN past vpnBits, either of which would
// alias another core's page.
func (m *Manager) owner(core int, vpn uint64) uint64 {
	if uint(core) >= uint(m.cores) || vpn > vpnMask {
		panic(fmt.Sprintf("osmem: page (core %d, VPN %#x) outside %d cores and %d-bit VPNs", core, vpn, m.cores, vpnBits))
	}
	return uint64(core)<<vpnBits | vpn
}

// mapping unpacks PTE i's owner word.
func (m *Manager) mapping(i uint32) Mapping {
	w := *m.owners.at(uint64(i))
	return Mapping{Core: int(w >> vpnBits), VPN: w & vpnMask}
}

// find returns the index position holding key's PTE number+1, or the empty
// position that ends key's probe run and 0.
func (m *Manager) find(key uint64) (pos int, e uint32) {
	mask := len(m.index) - 1
	for p := int((key * 0x9e3779b97f4a7c15) >> m.shift); ; p = (p + 1) & mask {
		e := m.index[p]
		if e == 0 || *m.owners.at(uint64(e - 1)) == key {
			return p, e
		}
	}
}

// newPTE adds a PTE holding pte for the owner word key, whose probe run
// ends at the empty index position p. Every PFN comes with a PTE, so
// bounding the PTE count below math.MaxUint32 also keeps every PFN within
// CPD.PFN's 32 bits.
func (m *Manager) newPTE(p int, key uint64, pte PTE) *PTE {
	if m.ptes.n >= math.MaxUint32 {
		panic(fmt.Sprintf("osmem: %d page-table entries exhaust the 32-bit frame and PTE indices", m.ptes.n))
	}
	i := m.ptes.add(pte)
	m.owners.add(key)
	m.index[p] = uint32(i + 1)
	if 4*m.ptes.n > 3*uint64(len(m.index)) {
		m.grow()
	}
	return m.ptes.at(i)
}

// grow doubles the index and re-inserts every PTE in number order.
func (m *Manager) grow() {
	m.index = make([]uint32, 2*len(m.index))
	m.shift--
	for i := uint64(0); i < m.ptes.n; i++ {
		p, _ := m.find(*m.owners.at(i))
		m.index[p] = uint32(i + 1)
	}
}

// MapShared maps (core, vpn) to an existing physical frame, modeling a
// shared page: both PTEs resolve to the same PFN and the frame's reverse
// mapping covers both. The page must not be mapped yet.
func (m *Manager) MapShared(core int, vpn uint64, pfn uint64) *PTE {
	ppd := m.PPDOf(pfn)
	if ppd == nil {
		panic(fmt.Sprintf("osmem: MapShared to unallocated PFN %d", pfn))
	}
	key := m.owner(core, vpn)
	p, e := m.find(key)
	if e != 0 {
		panic(fmt.Sprintf("osmem: MapShared of mapped page (core %d, VPN %#x)", core, vpn))
	}
	first := *m.first.at(pfn)
	pte := PTE{Frame: pfn, Present: true, Cached: ppd.Cached, NonCacheable: ppd.NonCacheable}
	if ppd.Cached {
		// Shared page already cached: the new PTE must resolve to the
		// CFN, which SetCached put in every existing mapping's PTE.
		pte.Frame = m.ptes.at(uint64(first)).Frame
	}
	ms, ok := m.shared[pfn]
	if !ok {
		ms = []Mapping{m.mapping(first)}
	}
	m.shared[pfn] = append(ms, Mapping{Core: core, VPN: vpn})
	return m.newPTE(p, key, pte)
}

// PPDOf returns the descriptor of a physical frame (nil if unallocated).
func (m *Manager) PPDOf(pfn uint64) *PPD {
	if pfn >= m.descs.n {
		return nil
	}
	return m.descs.at(pfn)
}

// Mappings returns every (core, VPN) mapping of an allocated physical frame,
// its first mapping first. The slice is the Manager's own storage, valid
// until the next call: callers read it and must not modify it.
func (m *Manager) Mappings(pfn uint64) []Mapping {
	if ms, ok := m.shared[pfn]; ok {
		return ms
	}
	m.one[0] = m.mapping(*m.first.at(pfn))
	return m.one[:]
}

// eachPTE calls f with every PTE of an allocated physical frame, in
// Mappings order.
func (m *Manager) eachPTE(pfn uint64, f func(*PTE)) {
	ms, ok := m.shared[pfn]
	if !ok {
		f(m.ptes.at(uint64(*m.first.at(pfn))))
		return
	}
	for _, mp := range ms {
		_, e := m.find(m.owner(mp.Core, mp.VPN))
		f(m.ptes.at(uint64(e - 1)))
	}
}

// CPDOf returns the descriptor of a cache frame, allocating the CPD array on
// first use. Every CPD write goes through it; the read-only scans
// (EvictCandidates, ValidFrames, CheckAccounting) read a missing array as
// every frame free.
func (m *Manager) CPDOf(cfn uint64) *CPD {
	if m.cpds == nil {
		m.cpds = make([]CPD, m.frames)
	}
	return &m.cpds[cfn]
}

// AllocateFrame implements the allocation half of Algorithm 1 (lines 2-5,
// 7-11): advance the head past unfree frames (possible after TLB-shootdown
// avoidance skips), claim the frame, record the PFN, and decrement the free
// count. It returns the allocated CFN. The caller is responsible for PTE and
// timing updates.
func (m *Manager) AllocateFrame(pfn uint64) uint64 {
	n := m.frames
	if m.numFree == 0 {
		panic("osmem: no free cache frames (eviction daemon starved)")
	}
	for m.CPDOf(m.head).Valid {
		m.head = (m.head + 1) % n
	}
	cfn := m.head
	m.head = (m.head + 1) % n
	cpd := m.CPDOf(cfn)
	if check.Enabled {
		check.Assert(!cpd.Valid, "osmem: allocating occupied cache frame %d", cfn)
		check.Assert(pfn < m.descs.n, "osmem: allocating a cache frame for unallocated PFN %d", pfn)
	}
	*cpd = CPD{PFN: uint32(pfn), Valid: true}
	m.numFree--
	if check.Enabled {
		check.Assert(m.numFree <= n, "osmem: free count %d exceeds %d frames after allocate", m.numFree, n)
	}
	return cfn
}

// EvictCandidates implements the victim scan of Algorithm 2: starting at the
// tail, examine up to batch frames, skipping frames whose translations are
// TLB-resident (TLBDir != 0) and frames that are already free. It returns
// the CFNs to evict plus the number of TLB-shootdown-avoidance skips, and
// advances the tail past examined frames. Before the first allocation every
// frame is free, and the scan only advances the tail.
func (m *Manager) EvictCandidates(batch int) (victims []uint64, tlbSkips int) {
	n := m.frames
	if uint64(batch) > n {
		// Never scan more than one full revolution, or the same frame
		// would be returned twice.
		batch = int(n)
	}
	victims = make([]uint64, 0, batch)
	for i := 0; i < batch; i++ {
		cfn := m.tail
		m.tail = (m.tail + 1) % n
		if m.cpds == nil {
			continue
		}
		cpd := &m.cpds[cfn]
		if !cpd.Valid {
			continue
		}
		if cpd.TLBDir != 0 {
			tlbSkips++ // in a TLB: skip to avoid a shootdown
			continue
		}
		victims = append(victims, cfn)
	}
	return victims, tlbSkips
}

// ShootdownTail is the shootdown fallback for a starved victim scan: over
// the next batch frames EvictCandidates will examine (at most one
// revolution), it calls shoot for every mapping of each frame a TLB still
// holds and clears that frame's TLB directory, so the scan can take it. It
// returns the number of shootdowns.
func (m *Manager) ShootdownTail(batch int, shoot func(core int, vpn uint64)) (shootdowns uint64) {
	n := m.frames
	for i := uint64(0); i < uint64(batch) && i < n; i++ {
		cfn := (m.tail + i) % n
		if cpd := m.CPDOf(cfn); cpd.Valid && cpd.TLBDir != 0 {
			for _, mp := range m.Mappings(uint64(cpd.PFN)) {
				shootdowns++
				shoot(mp.Core, mp.VPN)
			}
			cpd.TLBDir = 0
		}
	}
	return shootdowns
}

// ReleaseFrame invalidates a cache frame and restores every PTE mapping its
// physical frame (Algorithm 2, lines 12-17). It returns the PFN and whether
// the frame was dirty in cache (writeback required).
func (m *Manager) ReleaseFrame(cfn uint64) (pfn uint64, dirty bool) {
	cpd := m.CPDOf(cfn)
	if !cpd.Valid {
		panic(fmt.Sprintf("osmem: releasing free cache frame %d", cfn))
	}
	pfn = uint64(cpd.PFN)
	dirty = cpd.DirtyInCache
	m.eachPTE(pfn, func(pte *PTE) {
		pte.Frame = pfn
		pte.Cached = false
		pte.DirtyInCache = false
	})
	m.descs.at(pfn).Cached = false
	cpd.Valid = false
	cpd.DirtyInCache = false
	m.numFree++
	if check.Enabled {
		check.Assert(m.numFree <= m.frames,
			"osmem: free count %d exceeds %d frames after release of %d", m.numFree, m.frames, cfn)
	}
	return pfn, dirty
}

// SetCached updates every PTE of pfn to point at cfn with the C bit set
// (Algorithm 1 lines 7-10, plus the shared-page extension of §III-G).
func (m *Manager) SetCached(pfn, cfn uint64) {
	m.eachPTE(pfn, func(pte *PTE) {
		pte.Frame = cfn
		pte.Cached = true
	})
	m.descs.at(pfn).Cached = true
}

// MarkDirty sets the DC bit on a cached frame (write access path). Callers
// pass the CFN of the written page.
func (m *Manager) MarkDirty(cfn uint64) {
	m.CPDOf(cfn).DirtyInCache = true
}

// TLBSet sets or clears core's bit in the frame's TLB directory.
func (m *Manager) TLBSet(cfn uint64, core int, resident bool) {
	if cpd := m.CPDOf(cfn); resident {
		cpd.TLBDir |= 1 << uint(core)
	} else {
		cpd.TLBDir &^= 1 << uint(core)
	}
}

// ValidFrames counts allocated cache frames (for tests). It reads the CPD
// array without allocating it.
func (m *Manager) ValidFrames() uint64 {
	var n uint64
	for i := range m.cpds {
		if m.cpds[i].Valid {
			n++
		}
	}
	return n
}

// CheckAccounting verifies the free-frame ledger against a full descriptor
// scan: numFree + valid frames must equal capacity, and every valid frame's
// PFN must map back through its PPD with the cached bit set. It is O(frames)
// — invariant-tagged tests call it at run boundaries rather than per
// operation.
func (m *Manager) CheckAccounting() error {
	valid := m.ValidFrames()
	if m.numFree+valid != m.frames {
		return fmt.Errorf("osmem: %d free + %d valid != %d frames", m.numFree, valid, m.frames)
	}
	for cfn := range m.cpds {
		cpd := &m.cpds[cfn]
		if !cpd.Valid {
			continue
		}
		ppd := m.PPDOf(uint64(cpd.PFN))
		if ppd == nil {
			return fmt.Errorf("osmem: cache frame %d holds unallocated PFN %d", cfn, cpd.PFN)
		}
		if !ppd.Cached {
			return fmt.Errorf("osmem: cache frame %d holds PFN %d whose PPD is not cached", cfn, cpd.PFN)
		}
	}
	return nil
}

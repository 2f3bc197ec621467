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
// non-cacheable (NC) bits (Fig. 4). Reverse mappings let the eviction daemon
// find every PTE of a physical frame (Algorithm 2, lines 12-15), including
// shared pages.
type PPD struct {
	Cached       bool
	NonCacheable bool
	Dirty        bool
	// Walks counts page-table walks that found the page uncached; the
	// selective-caching policy (§V: Thermostat/KLOCs-style mechanisms the
	// OS-managed design can adopt) caches a page only after a threshold
	// of such touches.
	Walks   uint64
	Reverse []Mapping
}

// CPD is a cache page descriptor (Fig. 4): the state of one DRAM-cache
// frame.
type CPD struct {
	Valid        bool
	DirtyInCache bool   // DC bit: writeback required on eviction
	PFN          uint64 // original physical frame, for reclamation
	// TLBDir has one bit per core: whether that core's TLB holds a
	// translation to this cache frame (used for shootdown avoidance).
	TLBDir uint64
}

// MaxCores is the most cores a Manager tracks: TLBDir has one bit per core.
const MaxCores = 64

// Manager owns page tables, descriptors, and the cache-frame free queue.
type Manager struct {
	cores      int
	pageTables []map[uint64]*PTE // per core: VPN -> PTE

	ppds    map[uint64]*PPD // PFN -> descriptor (sparse)
	nextPFN uint64

	cpds    []CPD // CFN -> descriptor (dense: the DC is small)
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
	m := &Manager{
		cores:      cores,
		pageTables: make([]map[uint64]*PTE, cores),
		ppds:       make(map[uint64]*PPD),
		cpds:       make([]CPD, cacheFrames),
		numFree:    cacheFrames,
	}
	for i := range m.pageTables {
		m.pageTables[i] = make(map[uint64]*PTE)
	}
	return m
}

// CacheFrames returns the DRAM-cache capacity in frames.
func (m *Manager) CacheFrames() uint64 { return uint64(len(m.cpds)) }

// FreeFrames returns the current number of free cache frames.
func (m *Manager) FreeFrames() uint64 { return m.numFree }

// Head and Tail expose the free-queue pointers (for tests and stats).
func (m *Manager) Head() uint64 { return m.head }
func (m *Manager) Tail() uint64 { return m.tail }

// PTEOf returns the PTE for (core, vpn), demand-allocating the physical
// frame on first touch (conventional first-touch allocation policy).
func (m *Manager) PTEOf(core int, vpn uint64) *PTE {
	pt := m.pageTables[core]
	if pte, ok := pt[vpn]; ok {
		return pte
	}
	pfn := m.nextPFN
	m.nextPFN++
	pte := &PTE{Frame: pfn, Present: true}
	pt[vpn] = pte
	m.ppds[pfn] = &PPD{Reverse: []Mapping{{Core: core, VPN: vpn}}}
	return pte
}

// MapShared maps (core, vpn) to an existing physical frame, modeling a
// shared page: both PTEs resolve to the same PFN and the PPD's reverse
// mapping covers both.
func (m *Manager) MapShared(core int, vpn uint64, pfn uint64) *PTE {
	ppd, ok := m.ppds[pfn]
	if !ok {
		panic(fmt.Sprintf("osmem: MapShared to unallocated PFN %d", pfn))
	}
	pte := &PTE{Frame: pfn, Present: true, Cached: ppd.Cached, NonCacheable: ppd.NonCacheable}
	if ppd.Cached {
		// Shared page already cached: the new PTE must resolve to the
		// CFN, found via any existing mapping.
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

// PPDOf returns the descriptor of a physical frame (nil if unallocated).
func (m *Manager) PPDOf(pfn uint64) *PPD { return m.ppds[pfn] }

// CPDOf returns the descriptor of a cache frame.
func (m *Manager) CPDOf(cfn uint64) *CPD { return &m.cpds[cfn] }

// AllocateFrame implements the allocation half of Algorithm 1 (lines 2-5,
// 7-11): advance the head past unfree frames (possible after TLB-shootdown
// avoidance skips), claim the frame, record the PFN, and decrement the free
// count. It returns the allocated CFN. The caller is responsible for PTE and
// timing updates.
func (m *Manager) AllocateFrame(pfn uint64) uint64 {
	n := uint64(len(m.cpds))
	if m.numFree == 0 {
		panic("osmem: no free cache frames (eviction daemon starved)")
	}
	for m.cpds[m.head].Valid {
		m.head = (m.head + 1) % n
	}
	cfn := m.head
	m.head = (m.head + 1) % n
	cpd := &m.cpds[cfn]
	if check.Enabled {
		check.Assert(!cpd.Valid, "osmem: allocating occupied cache frame %d", cfn)
	}
	cpd.Valid = true
	cpd.DirtyInCache = false
	cpd.PFN = pfn
	cpd.TLBDir = 0
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
// advances the tail past examined frames.
func (m *Manager) EvictCandidates(batch int) (victims []uint64, tlbSkips int) {
	n := uint64(len(m.cpds))
	if uint64(batch) > n {
		// Never scan more than one full revolution, or the same frame
		// would be returned twice.
		batch = int(n)
	}
	victims = make([]uint64, 0, batch)
	for i := 0; i < batch; i++ {
		cfn := m.tail
		m.tail = (m.tail + 1) % n
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

// ReleaseFrame invalidates a cache frame and restores every PTE mapping its
// physical frame (Algorithm 2, lines 12-17). It returns the PFN and whether
// the frame was dirty in cache (writeback required).
func (m *Manager) ReleaseFrame(cfn uint64) (pfn uint64, dirty bool) {
	cpd := &m.cpds[cfn]
	if !cpd.Valid {
		panic(fmt.Sprintf("osmem: releasing free cache frame %d", cfn))
	}
	pfn = cpd.PFN
	dirty = cpd.DirtyInCache
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
	if check.Enabled {
		check.Assert(m.numFree <= uint64(len(m.cpds)),
			"osmem: free count %d exceeds %d frames after release of %d", m.numFree, len(m.cpds), cfn)
	}
	return pfn, dirty
}

// SetCached updates every PTE of pfn to point at cfn with the C bit set
// (Algorithm 1 lines 7-10, plus the shared-page extension of §III-G).
func (m *Manager) SetCached(pfn, cfn uint64) {
	ppd := m.ppds[pfn]
	for _, mp := range ppd.Reverse {
		pte := m.pageTables[mp.Core][mp.VPN]
		pte.Frame = cfn
		pte.Cached = true
	}
	ppd.Cached = true
}

// MarkDirty sets the DC bit on a cached frame (write access path). Callers
// pass the CFN of the written page.
func (m *Manager) MarkDirty(cfn uint64) {
	m.cpds[cfn].DirtyInCache = true
}

// TLBSet sets or clears core's bit in the frame's TLB directory.
func (m *Manager) TLBSet(cfn uint64, core int, resident bool) {
	if resident {
		m.cpds[cfn].TLBDir |= 1 << uint(core)
	} else {
		m.cpds[cfn].TLBDir &^= 1 << uint(core)
	}
}

// ValidFrames counts allocated cache frames (for tests).
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
	if m.numFree+valid != uint64(len(m.cpds)) {
		return fmt.Errorf("osmem: %d free + %d valid != %d frames", m.numFree, valid, len(m.cpds))
	}
	for cfn := range m.cpds {
		cpd := &m.cpds[cfn]
		if !cpd.Valid {
			continue
		}
		ppd := m.ppds[cpd.PFN]
		if ppd == nil {
			return fmt.Errorf("osmem: cache frame %d holds unallocated PFN %d", cfn, cpd.PFN)
		}
		if !ppd.Cached {
			return fmt.Errorf("osmem: cache frame %d holds PFN %d whose PPD is not cached", cfn, cpd.PFN)
		}
	}
	return nil
}

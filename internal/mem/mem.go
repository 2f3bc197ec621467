// Package mem defines the memory request model and address geometry shared by
// every component: 64 B blocks, 4 KB pages, and the distinction between
// virtual, physical (off-package), and cache (on-package) addresses.
//
// # Address-space convention
//
// All addresses are byte addresses carried in uint64. Virtual addresses are
// per-core. After translation an access carries either a physical frame
// number (PFN, a frame in off-package DDR) or a cache frame number (CFN, a
// frame in the on-package DRAM cache), depending on the scheme and on whether
// the page is cached. Frame numbers are page indexes, not byte addresses.
package mem

// Geometry constants. The paper uses 64 B DRAM bursts (sub-blocks) and 4 KB
// pages, giving 64 sub-blocks per page — which is why PCSHR status vectors
// are 64-bit.
const (
	BlockBits = 6
	BlockSize = 1 << BlockBits // 64 B: SRAM line and DRAM burst (sub-block)

	PageBits = 12
	PageSize = 1 << PageBits // 4 KB

	SubBlocksPerPage = PageSize / BlockSize // 64
)

// PageNum returns the page number of a byte address.
func PageNum(addr uint64) uint64 { return addr >> PageBits }

// PageOffset returns the byte offset within the page.
func PageOffset(addr uint64) uint64 { return addr & (PageSize - 1) }

// BlockNum returns the block (64 B) number of a byte address.
func BlockNum(addr uint64) uint64 { return addr >> BlockBits }

// BlockAligned returns addr rounded down to its 64 B block.
func BlockAligned(addr uint64) uint64 { return addr &^ (BlockSize - 1) }

// SubBlockIndex returns the sub-block index (0..63) of addr within its page.
func SubBlockIndex(addr uint64) uint { return uint((addr >> BlockBits) & (SubBlocksPerPage - 1)) }

// FrameAddr converts a frame number (PFN or CFN) to the byte address of the
// start of the frame.
func FrameAddr(frame uint64) uint64 { return frame << PageBits }

// AddrInFrame composes a byte address from a frame number and a page offset.
func AddrInFrame(frame, offset uint64) uint64 { return frame<<PageBits | (offset & (PageSize - 1)) }

// SpaceBit tags cache-space (on-package) addresses so that CFN-based and
// PFN-based addresses never alias inside the SRAM hierarchy, which indexes
// by post-translation address.
const SpaceBit = uint64(1) << 61

// TagSpace returns addr tagged as belonging to the given space.
func TagSpace(addr uint64, s Space) uint64 {
	if s == SpaceCache {
		return addr | SpaceBit
	}
	return addr
}

// SpaceOf returns the space a tagged address belongs to.
func SpaceOf(addr uint64) Space {
	if addr&SpaceBit != 0 {
		return SpaceCache
	}
	return SpacePhysical
}

// Untag strips the space tag, leaving the device byte address.
func Untag(addr uint64) uint64 { return addr &^ SpaceBit }

// Space identifies which address space / device a post-translation request
// targets.
type Space uint8

const (
	// SpacePhysical addresses off-package memory (DDR): the address embeds
	// a PFN.
	SpacePhysical Space = iota
	// SpaceCache addresses the on-package DRAM cache (HBM): the address
	// embeds a CFN.
	SpaceCache
)

func (s Space) String() string {
	switch s {
	case SpacePhysical:
		return "physical"
	case SpaceCache:
		return "cache"
	default:
		return "invalid"
	}
}

// Kind categorizes DRAM traffic for the bandwidth breakdown of Fig. 10.
type Kind uint8

const (
	// KindDemand is demand data moved for the application (reads and
	// writebacks from the SRAM hierarchy).
	KindDemand Kind = iota
	// KindMetadata is DC metadata traffic (tags, LRU/dirty updates) — only
	// the HW-based TiD scheme generates it.
	KindMetadata
	// KindFill is cache-fill traffic (page or line copies into the DC).
	KindFill
	// KindWriteback is DC eviction traffic (dirty pages/lines copied back
	// to off-package memory).
	KindWriteback
	// KindWalk is page-table-walk traffic.
	KindWalk

	NumKinds = 5
)

func (k Kind) String() string {
	switch k {
	case KindDemand:
		return "demand"
	case KindMetadata:
		return "metadata"
	case KindFill:
		return "fill"
	case KindWriteback:
		return "writeback"
	case KindWalk:
		return "walk"
	default:
		return "invalid"
	}
}

// StallCause names the component a load is waiting on at one instant. Each
// cycle a core's ROB head is an incomplete load, exactly one cause is
// charged — whichever component currently owns the load — so the per-cause
// buckets sum exactly to the core's memory-stall cycles (the CPI stack
// invariant enforced by internal/system).
type StallCause uint8

const (
	// StallSRAM: the load is traversing the SRAM hierarchy (L1/L2/LLC
	// lookup latency, or waiting coalesced on another load's line fill).
	StallSRAM StallCause = iota
	// StallTLB: address translation (L2 TLB access or page-table walk).
	StallTLB
	// StallMSHR: parked because every MSHR of a cache level was busy.
	StallMSHR
	// StallPCSHR: parked in a PCSHR sub-entry waiting for an in-transfer
	// sub-block (NOMAD data miss; the paper's PCSHR wait).
	StallPCSHR
	// StallDRAMQueue: enqueued in a DRAM channel queue (FR-FCFS backlog).
	StallDRAMQueue
	// StallRowConflict: the issued burst had to close an open row first.
	StallRowConflict
	// StallBus: the burst waited for the channel data bus.
	StallBus
	// StallDRAMService: intrinsic activate/CAS/burst time of the access.
	StallDRAMService

	NumStallCauses = 8
)

var stallCauseNames = [NumStallCauses]string{
	"sram", "tlb", "mshr", "pcshr",
	"dram_queue", "row_conflict", "bus", "dram_service",
}

func (c StallCause) String() string {
	if int(c) < len(stallCauseNames) {
		return stallCauseNames[c]
	}
	return "invalid"
}

// Probe is the latency-provenance tag of one load: the memory system updates
// Cause as the request moves between components (live, every load), and
// SpanID marks the 1-in-N sampled loads whose per-hop spans are recorded.
// The issuing core allocates one Probe per in-flight load and reads Cause
// each cycle the load blocks retirement.
//
//nomad:ephemeral request descriptor payload; consumed and counted by the receiving engine
type Probe struct {
	// SpanID is nonzero only for span-sampled loads; it ties the span
	// records of one access together across components.
	SpanID uint64
	// Core is the issuing core (for span records emitted by shared
	// components that do not otherwise know it).
	Core int32
	// Cause is the component currently responsible for the load's latency.
	Cause StallCause
}

// Request is a single memory access. One Request flows from the core through
// the SRAM hierarchy; below the LLC the scheme may spawn further Requests
// (fills, metadata, writebacks) tagged with the appropriate Kind.
//
//nomad:ephemeral request descriptor payload; consumed and counted by the receiving engine
type Request struct {
	// Addr is the byte address in the space indicated by Space. Above the
	// TLB it is virtual; below it is physical or cache.
	Addr  uint64
	Write bool
	Space Space
	Kind  Kind
	// Core is the index of the originating core (-1 for traffic generated
	// by the OS or hardware engines).
	Core int
	// Priority marks critical-data-first requests in DRAM scheduling.
	Priority bool
	// Issue is the cycle the request entered the component measuring it
	// (used for DC access-time accounting).
	Issue uint64
	// Probe, when non-nil, is the originating load's latency-provenance
	// tag: components update Probe.Cause as they take ownership of the
	// request. Generated traffic (fills, writebacks, metadata) carries nil.
	Probe *Probe
}

// Done is a completion callback. Components hand a request downward together
// with the callback to invoke when the data is available (reads) or accepted
// (writes).
type Done func()

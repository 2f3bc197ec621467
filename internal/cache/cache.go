// Package cache implements the SRAM cache hierarchy (private L1/L2, shared
// LLC): set-associative, LRU, writeback, write-allocate, with MSHRs that
// coalesce misses to the same block — the non-blocking cache design of
// Kroft / Farkas & Jouppi that both the HW DRAM-cache scheme and the NOMAD
// back-end are modeled after.
//
// Levels are chained through the Lower interface; below the LLC sits the
// memory scheme under evaluation (Baseline, TiD, TDC, NOMAD, or Ideal).
package cache

import (
	"fmt"
	"math/bits"

	"nomad/internal/check"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/sim"
)

// Lower is the downstream side of a cache level: the next cache level or,
// below the LLC, the DRAM-cache scheme.
type Lower interface {
	// Access performs a block-granular access. done runs when a read's
	// data is available or a write is accepted.
	Access(req *mem.Request, done mem.Done)
}

// Config describes one cache level.
type Config struct {
	Name    string
	Sets    int
	Ways    int
	Latency uint64 // lookup latency in cycles
	MSHRs   int
}

// SizeBytes returns the capacity of a cache with this geometry.
func (c Config) SizeBytes() uint64 {
	return uint64(c.Sets) * uint64(c.Ways) * mem.BlockSize
}

// Stats counts per-level events.
type Stats struct {
	Hits         uint64
	Misses       uint64
	Writebacks   uint64
	Coalesced    uint64 // misses merged into an existing MSHR
	MSHRStalls   uint64 // accesses delayed because all MSHRs were busy
	FlushedLines uint64
	FlushWBs     uint64
}

// MissRate returns misses / (hits+misses).
func (s *Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// invalidTag marks an empty way in the packed tag array; tagOf never
// returns it.
const invalidTag = ^uint32(0)

// spaceBlockBit is mem.SpaceBit's position in a block number.
const spaceBlockBit = mem.SpaceBit >> mem.BlockBits

// maxTagHigh bounds the block bits a tag keeps: 31 of them above the space
// bit, short of the all-ones value that would make invalidTag.
const maxTagHigh = 1<<31 - 1

// maxWays bounds the associativity: a set's recency order packs one way
// index per 4-bit rank into a uint64.
const maxWays = 16

// nibbles has a one in every 4-bit rank of a set's recency order.
const nibbles = 0x1111111111111111

// setState is one set's replacement state other than the tags: the ways'
// exact recency order plus their valid and dirty bits, 16 bytes per set.
// Tags live in their own packed uint32 array so the per-lookup way scan
// touches one or two host cache lines.
//
// The order is exact LRU. A way's last fill or hit moves it to rank 0, so
// among valid ways the rank order is the order of their last touches; an
// invalidated way keeps its rank but is never ranked against valid ways,
// because a fill takes the lowest invalid way before it looks at ranks.
type setState struct {
	// perm holds the way at rank r in bits 4r..4r+3, rank 0 the most
	// recently used. Ranks at or past the set's way count hold their own
	// index and never move.
	perm  uint64
	valid uint32
	dirty uint32
}

// identityPerm ranks way r at rank r.
const identityPerm = 0xFEDCBA9876543210

// touch moves way w to rank 0, shifting the ranks above it down by one.
func (s *setState) touch(w int) {
	// Find w's rank: the lowest zero nibble of perm^w (SWAR zero-nibble
	// search; the borrow cannot reach below the first zero).
	x := s.perm ^ uint64(w)*nibbles
	shift := uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
	below := uint64(1)<<shift - 1 // the ranks more recent than w
	s.perm = s.perm&^(below<<4|0xF) | (s.perm&below)<<4 | uint64(w)
}

// hit makes way w the most recently used and, for a write, dirty.
func (s *setState) hit(w int, write bool) {
	s.touch(w)
	if write {
		s.dirty |= 1 << w
	}
}

// victim returns the way a fill takes: the lowest invalid way, else the
// least recently used one.
func (s *setState) victim(ways int) int {
	if free := ^s.valid & (1<<ways - 1); free != 0 {
		return bits.TrailingZeros32(free)
	}
	return int(s.perm >> (4 * (ways - 1)) & 0xF)
}

// install makes way w valid, clean or dirty, and the most recently used.
func (s *setState) install(w int, dirty bool) {
	bit := uint32(1) << w
	s.valid |= bit
	s.dirty &^= bit
	if dirty {
		s.dirty |= bit
	}
	s.touch(w)
}

// invalidate clears way w's valid and dirty bits and leaves its rank.
func (s *setState) invalidate(w int) {
	s.valid &^= 1 << w
	s.dirty &^= 1 << w
}

// audit asserts the record's structure under the invariants build: dirty
// ways are valid, ranks 0..ways-1 hold each way once, and a way is valid
// exactly when its tag is not invalidTag.
func (s *setState) audit(name string, tags []uint32) {
	check.Assert(s.dirty&^s.valid == 0,
		"cache %s: dirty mask %#x not within valid mask %#x", name, s.dirty, s.valid)
	var seen uint32
	for r := range tags {
		seen |= 1 << (s.perm >> (4 * r) & 0xF)
	}
	check.Assert(seen == 1<<len(tags)-1,
		"cache %s: recency order %#x is not a permutation of %d ways", name, s.perm, len(tags))
	for w, t := range tags {
		check.Assert((s.valid>>w&1 == 1) == (t != invalidTag),
			"cache %s: way %d valid bit %d disagrees with tag %#x", name, w, s.valid>>w&1, t)
	}
}

type waiter struct {
	write bool
	done  mem.Done
}

// mshr is one slot of the cache's fixed MSHR file. Slots live in a flat
// array (cache-friendly scan, no map or per-miss allocation); fillFn is the
// slot's permanent fill callback, built once at construction.
type mshr struct {
	block   uint64
	waiters []waiter
	fillFn  func()
	// write records whether any coalesced access was a write (line will
	// be installed dirty).
	write  bool
	active bool
	idx    int32  // slot index in mshrFile
	pos    int32  // position in mshrActive while active
	start  uint64 // allocation cycle (miss-latency histogram)
}

// accessOp is a pooled in-flight Access: the request copy plus its
// completion, carried across the lookup-latency delay by a prebuilt closure
// instead of a fresh capture per access. retried marks re-admissions after
// an MSHR stall (they skip hit/miss accounting).
type accessOp struct {
	req     mem.Request
	done    mem.Done
	retried bool
	runFn   func()
}

// Cache is one level. It is event-driven: Access schedules the lookup after
// the configured latency.
type Cache struct {
	cfg   Config
	eng   *sim.Engine
	lower Lower
	// tags[set*Ways+way] holds each way's tag (invalidTag when empty);
	// sets[set] is the set's recency order and valid/dirty bits.
	tags []uint32
	sets []setState
	// mshrFile is the fixed MSHR array. Allocation goes through mshrFreeIdx
	// (a stack of free slot indexes, O(1)); the per-miss coalesce scan
	// walks mshrActive, a compact array of the active slots' block numbers
	// (mshrActiveIdx maps each entry back to its slot), so its length is
	// the actual occupancy, not the file size.
	mshrFile      []mshr
	mshrActive    []uint64
	mshrActiveIdx []int32
	mshrFreeIdx   []int32
	// ops is the accessOp freelist; wbReq and fillReq are scratch requests
	// for writebacks and downstream fills (Lower.Access copies its
	// argument, per its contract, so a single scratch per purpose suffices
	// and keeps the miss path allocation-free — a local request would
	// escape through the interface call).
	ops     []*accessOp
	wbReq   mem.Request
	fillReq mem.Request
	// pending holds accesses stalled on MSHR exhaustion, serviced FIFO as
	// MSHRs free; pendHead indexes the next one so pops keep the backing
	// array (re-slicing would bleed capacity and force reallocations).
	pending  []pendingAccess
	pendHead int
	stats    Stats
	// mshrOcc samples MSHR occupancy at each allocation (nil until
	// RegisterMetrics; Observe on nil is a no-op).
	mshrOcc *metrics.Histogram
	// missLat records miss-to-fill latency per miss (RegisterMetrics).
	missLat *metrics.Histogram
	// spans/spanKind: when set, sampled accesses (Probe.SpanID != 0)
	// record one span of this level's kind covering the full access.
	spans    *metrics.SpanRing
	spanKind metrics.SpanKind

	setMask uint64
}

type pendingAccess struct {
	req  mem.Request
	done mem.Done
}

// New builds a cache level on top of lower.
func New(eng *sim.Engine, cfg Config, lower Lower) *Cache {
	if cfg.Sets&(cfg.Sets-1) != 0 || cfg.Sets <= 0 {
		panic(fmt.Sprintf("cache %s: sets must be a positive power of two, got %d", cfg.Name, cfg.Sets))
	}
	if cfg.Ways <= 0 || cfg.Ways > maxWays {
		panic(fmt.Sprintf("cache %s: ways must be between 1 and %d, got %d", cfg.Name, maxWays, cfg.Ways))
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 8
	}
	c := &Cache{
		cfg:           cfg,
		eng:           eng,
		lower:         lower,
		tags:          make([]uint32, cfg.Sets*cfg.Ways),
		sets:          make([]setState, cfg.Sets),
		mshrFile:      make([]mshr, cfg.MSHRs),
		mshrActive:    make([]uint64, 0, cfg.MSHRs),
		mshrActiveIdx: make([]int32, 0, cfg.MSHRs),
		mshrFreeIdx:   make([]int32, 0, cfg.MSHRs),
		setMask:       uint64(cfg.Sets - 1),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for i := range c.sets {
		c.sets[i].perm = identityPerm
	}
	// Free slots pop from the stack tail; seeding it in reverse keeps
	// allocation order by ascending slot index (cosmetic, but stable).
	for i := len(c.mshrFile) - 1; i >= 0; i-- {
		m := &c.mshrFile[i]
		m.idx = int32(i)
		m.fillFn = func() { c.fill(m) }
		c.mshrFreeIdx = append(c.mshrFreeIdx, int32(i))
	}
	return c
}

// getOp takes an accessOp from the freelist, building the instance (and its
// permanent run closure) only on first use.
func (c *Cache) getOp() *accessOp {
	if n := len(c.ops); n > 0 {
		op := c.ops[n-1]
		c.ops = c.ops[:n-1]
		return op
	}
	op := &accessOp{}
	op.runFn = func() { c.runOp(op) }
	return op
}

// runOp fires after the lookup latency: it recycles the op, then performs
// the tag check (release-before-callback: lookup may re-enter Access).
func (c *Cache) runOp(op *accessOp) {
	req, done, retried := op.req, op.done, op.retried
	op.req = mem.Request{} // drop the probe pointer
	op.done = nil
	op.retried = false
	c.ops = append(c.ops, op)
	c.lookup(req, done, retried)
}

// Stats returns the level's counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// RegisterMetrics exposes the level's counters in reg under prefix (e.g.
// "cache.llc" or "cache.l1.3") plus an MSHR-occupancy histogram sampled at
// each miss allocation.
func (c *Cache) RegisterMetrics(reg *metrics.Registry, prefix string) {
	s := &c.stats
	reg.CounterFunc(prefix+".hits", func() uint64 { return s.Hits })
	reg.CounterFunc(prefix+".misses", func() uint64 { return s.Misses })
	reg.CounterFunc(prefix+".writebacks", func() uint64 { return s.Writebacks })
	reg.CounterFunc(prefix+".coalesced", func() uint64 { return s.Coalesced })
	reg.CounterFunc(prefix+".mshr_stalls", func() uint64 { return s.MSHRStalls })
	reg.CounterFunc(prefix+".flushed_lines", func() uint64 { return s.FlushedLines })
	reg.CounterFunc(prefix+".flush_writebacks", func() uint64 { return s.FlushWBs })
	c.mshrOcc = reg.Histogram(prefix + ".mshr_occupancy")
	c.missLat = reg.Histogram(prefix + ".miss_latency")
}

// SetSpans makes sampled accesses (Probe.SpanID != 0) record one span of
// the given kind covering this level's access, lookup to completion.
func (c *Cache) SetSpans(spans *metrics.SpanRing, kind metrics.SpanKind) {
	c.spans = spans
	c.spanKind = kind
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setIndex(block uint64) uint64 { return block & c.setMask }
func (c *Cache) setBits() uint                { return uint(bits.TrailingZeros64(uint64(c.cfg.Sets))) }

// tagOf packs a block's bits above the set index into 32 bits: those bits
// with mem.SpaceBit cleared, shifted left one, and the block's space in bit
// 0, so two blocks that differ only in their space never share a tag. It
// panics on a block whose bits above the set index reach maxTagHigh.
func (c *Cache) tagOf(block uint64) uint32 {
	high := (block &^ spaceBlockBit) >> c.setBits()
	if high >= maxTagHigh {
		panic(tagOverflow{c.cfg.Name, block})
	}
	return uint32(high<<1 | (block&spaceBlockBit)/spaceBlockBit)
}

// blockOf inverts tagOf for a block of the given set.
func (c *Cache) blockOf(tag uint32, set uint64) uint64 {
	return uint64(tag>>1)<<c.setBits() | set | uint64(tag&1)*spaceBlockBit
}

// tagOverflow is tagOf's panic value. Its message is formatted out of line,
// in Error, which keeps tagOf within the inliner's budget: a call to a
// function that is not inlined costs most of that budget by itself.
type tagOverflow struct {
	name  string
	block uint64
}

func (e tagOverflow) Error() string {
	return fmt.Sprintf("cache %s: block %#x needs a tag past 31 bits", e.name, e.block)
}

// Access performs a cache access for req (block-aligned internally). done is
// invoked when the access completes at this level.
func (c *Cache) Access(req *mem.Request, done mem.Done) {
	if p := req.Probe; p != nil && p.SpanID != 0 && c.spans != nil {
		// Sampled span path (1-in-N accesses): the wrapping closure is an
		// accepted allocation, paid only by sampled requests.
		start := c.eng.Now()
		inner := done
		id, core := p.SpanID, p.Core
		done = func() {
			c.spans.Emit(metrics.Span{
				ID: id, Kind: c.spanKind, Core: core,
				Start: start, End: c.eng.Now(),
			})
			if inner != nil {
				inner()
			}
		}
	}
	op := c.getOp()
	op.req = *req // copy: the caller may reuse the request
	op.done = done
	c.eng.Schedule(c.cfg.Latency, op.runFn)
}

// lookup performs the tag check. retried accesses (re-admitted after MSHR
// exhaustion) are not re-counted in the hit/miss statistics.
func (c *Cache) lookup(req mem.Request, done mem.Done, retried bool) {
	block := mem.BlockNum(req.Addr)
	setIdx := c.setIndex(block)
	base := int(setIdx) * c.cfg.Ways
	tag := c.tagOf(block)
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == tag {
			if !retried {
				c.stats.Hits++
			}
			c.sets[setIdx].hit(i, req.Write)
			if done != nil {
				done()
			}
			return
		}
	}
	c.miss(req, block, done, retried)
}

func (c *Cache) miss(req mem.Request, block uint64, done mem.Done, retried bool) {
	if !retried {
		c.stats.Misses++
	}
	for i, b := range c.mshrActive {
		if b == block {
			m := &c.mshrFile[c.mshrActiveIdx[i]]
			c.stats.Coalesced++
			m.waiters = append(m.waiters, waiter{write: req.Write, done: done})
			if req.Write {
				m.write = true
			}
			return
		}
	}
	n := len(c.mshrFreeIdx)
	if n == 0 {
		c.stats.MSHRStalls++
		if req.Probe != nil {
			req.Probe.SetCause(mem.StallMSHR)
		}
		c.pending = append(c.pending, pendingAccess{req: req, done: done})
		return
	}
	idx := c.mshrFreeIdx[n-1]
	c.mshrFreeIdx = c.mshrFreeIdx[:n-1]
	m := &c.mshrFile[idx]
	m.block = block
	m.write = req.Write
	m.start = c.eng.Now()
	m.active = true
	m.pos = int32(len(c.mshrActive))
	m.waiters = append(m.waiters[:0], waiter{write: req.Write, done: done})
	c.mshrActive = append(c.mshrActive, block)
	c.mshrActiveIdx = append(c.mshrActiveIdx, idx)
	c.mshrOcc.Observe(uint64(len(c.mshrActive)))

	c.fillReq = req
	c.fillReq.Addr = mem.BlockAligned(req.Addr)
	c.fillReq.Write = false // fetch the block; the write merges on fill
	c.lower.Access(&c.fillReq, m.fillFn)
}

func (c *Cache) fill(m *mshr) {
	if check.Enabled {
		check.Assert(m.active,
			"cache %s: fill for block %#x hit an inactive MSHR slot", c.cfg.Name, m.block)
		check.Assert(len(m.waiters) > 0,
			"cache %s: MSHR for block %#x filled with no waiters", c.cfg.Name, m.block)
	}
	c.missLat.Observe(c.eng.Now() - m.start)
	block := m.block
	setIdx := c.setIndex(block)
	base := int(setIdx) * c.cfg.Ways
	tag := c.tagOf(block)

	// Victim selection: invalid first, else LRU. Only a valid way can be
	// dirty, so a dirty victim is always a valid line to write back.
	s := &c.sets[setIdx]
	victim := s.victim(c.cfg.Ways)
	if s.dirty&(1<<victim) != 0 {
		c.stats.Writebacks++
		c.wbReq = mem.Request{
			Addr:  c.blockOf(c.tags[base+victim], setIdx) << mem.BlockBits,
			Write: true,
			Kind:  mem.KindDemand,
			Core:  -1,
		}
		c.lower.Access(&c.wbReq, nil) // Access copies; wbReq is scratch
	}
	c.tags[base+victim] = tag
	s.install(victim, m.write)
	if check.Enabled {
		s.audit(c.cfg.Name, c.tags[base:base+c.cfg.Ways])
	}

	// Free the slot before firing waiters (a waiter may re-enter and claim
	// it); detach the waiter list so a re-allocation cannot clobber it
	// mid-iteration, and hand the backing array back afterwards if the slot
	// is still unclaimed.
	ws := m.waiters
	m.waiters = nil
	m.active = false
	// Swap-remove the slot's entry from the compact active arrays and
	// return the slot to the free stack.
	last := len(c.mshrActive) - 1
	moved := c.mshrActiveIdx[last]
	c.mshrActive[m.pos] = c.mshrActive[last]
	c.mshrActiveIdx[m.pos] = moved
	c.mshrFile[moved].pos = m.pos
	c.mshrActive = c.mshrActive[:last]
	c.mshrActiveIdx = c.mshrActiveIdx[:last]
	c.mshrFreeIdx = append(c.mshrFreeIdx, m.idx)
	for i := range ws {
		if ws[i].done != nil {
			ws[i].done()
		}
	}
	for i := range ws {
		ws[i] = waiter{} // release the done closures
	}
	if m.waiters == nil {
		m.waiters = ws[:0]
	}
	// An MSHR freed: admit one stalled access, FIFO, through a pooled op
	// (stalls are common under small MSHR files, so the retry must not
	// allocate either).
	if len(c.pending) > c.pendHead {
		p := c.pending[c.pendHead]
		c.pending[c.pendHead] = pendingAccess{} // release the done closure
		c.pendHead++
		if c.pendHead == len(c.pending) {
			c.pending = c.pending[:0]
			c.pendHead = 0
		}
		op := c.getOp()
		op.req = p.req
		op.done = p.done
		op.retried = true
		c.eng.Schedule(0, op.runFn)
	}
}

// FlushPage invalidates every block of the given frame-aligned address range
// (one 4 KB page) at this level, writing dirty lines back downstream. It
// models flush_cache_range in the eviction daemon (Algorithm 2, line 3) and
// returns the number of dirty lines written back.
func (c *Cache) FlushPage(pageAddr uint64) int {
	wbs := 0
	first := mem.BlockNum(pageAddr &^ (mem.PageSize - 1))
	for i := uint64(0); i < mem.SubBlocksPerPage; i++ {
		block := first + i
		setIdx := c.setIndex(block)
		base := int(setIdx) * c.cfg.Ways
		tag := c.tagOf(block)
		for j, t := range c.tags[base : base+c.cfg.Ways] {
			if t == tag {
				s := &c.sets[setIdx]
				if s.dirty&(1<<j) != 0 {
					wbs++
					c.stats.FlushWBs++
					c.wbReq = mem.Request{
						Addr:  block << mem.BlockBits,
						Write: true,
						Kind:  mem.KindDemand,
						Core:  -1,
					}
					c.lower.Access(&c.wbReq, nil) // Access copies; wbReq is scratch
				}
				c.tags[base+j] = invalidTag
				s.invalidate(j)
				c.stats.FlushedLines++
			}
		}
	}
	return wbs
}

// OutstandingMSHRs reports how many MSHRs are in use (for tests).
func (c *Cache) OutstandingMSHRs() int { return len(c.mshrActive) }

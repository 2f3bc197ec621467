// Package dram models DRAM devices (on-package HBM and off-package DDR4) at
// the level the NOMAD paper exercises: channels, banks, row buffers, and a
// shared per-channel data bus. Timing is expressed in CPU cycles.
//
// The model captures:
//
//   - Row-buffer locality: row hits cost tCL, row misses tRCD+tCL, and row
//     conflicts tRP+tRCD+tCL before the data burst.
//   - Bus occupancy: each 64 B burst occupies the channel data bus for TBL
//     cycles, so sustained bandwidth is 64 B / TBL per channel. Metadata,
//     fill, and writeback traffic all compete for the same bus, which is how
//     the TiD scheme's metadata overhead and the OS schemes' page-copy
//     traffic show up as longer effective access times (Figs. 9 and 10).
//   - Bank parallelism: activations to distinct banks overlap; only data
//     bursts serialize on the bus.
//   - Critical-data-first scheduling: requests flagged Priority are selected
//     ahead of others (used by TiD MSHRs and the NOMAD back-end).
//
// Refresh and power states are not modeled; the paper's effects do not
// depend on them.
package dram

import (
	"fmt"
	"math/bits"

	"nomad/internal/check"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/sim"
)

// Timing holds device timing parameters in CPU cycles.
type Timing struct {
	TRCD uint64 // activate -> column command
	TRP  uint64 // precharge
	TCL  uint64 // column command -> first data beat
	TBL  uint64 // data-bus occupancy of one 64 B burst
}

// Config describes one DRAM device (a set of channels with identical
// geometry).
type Config struct {
	Name     string
	Channels int
	Banks    int // banks per channel
	RowBytes uint64
	Timing   Timing
	// InflightPerChannel bounds how many requests a channel scheduler has
	// issued but not completed; it approximates the command-queue depth
	// visible to FR-FCFS reordering.
	InflightPerChannel int
}

// HBMConfig returns the on-package DRAM configuration used throughout the
// evaluation: 8 channels x 16 banks, ~16 GB/s per channel (128 GB/s total) at
// a 3.2 GHz CPU clock.
func HBMConfig() Config {
	return Config{
		Name:               "HBM",
		Channels:           8,
		Banks:              16,
		RowBytes:           2048,
		Timing:             Timing{TRCD: 45, TRP: 45, TCL: 45, TBL: 13},
		InflightPerChannel: 16,
	}
}

// DDRConfig returns the off-package memory configuration: 2 channels x 16
// banks, ~12.8 GB/s per channel (25.6 GB/s total). The total is deliberately
// sized so the Excess-class workloads' required miss-handling bandwidth
// exceeds it, the Tight class saturates it, and the Loose class half-fills
// it, matching Table I / Fig. 2.
func DDRConfig() Config {
	return Config{
		Name:               "DDR4",
		Channels:           2,
		Banks:              16,
		RowBytes:           4096,
		Timing:             Timing{TRCD: 45, TRP: 45, TCL: 45, TBL: 16},
		InflightPerChannel: 16,
	}
}

// Stats accumulates device-wide counters.
type Stats struct {
	Reads  uint64
	Writes uint64
	// BytesByKind records data-bus bytes per traffic category (Fig. 10).
	BytesByKind  [mem.NumKinds]uint64
	RowHits      uint64
	RowMisses    uint64 // closed-row activations
	RowConflicts uint64
	// BusBusyCycles is the total number of cycles any channel's data bus
	// was transferring data (sum over channels).
	BusBusyCycles uint64
	// ReadLatencySum/ReadCount measure arrival-to-data latency of reads.
	ReadLatencySum uint64
	ReadCount      uint64
	// QueueFullRejects counts arrivals that found 64 or more requests
	// already waiting in their channel queue. Such a request still joins
	// the queue: the name is historical.
	QueueFullRejects uint64
}

// RowHitRate returns the fraction of bursts that hit an open row.
func (s *Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// TotalBytes returns all data-bus bytes moved.
func (s *Stats) TotalBytes() uint64 {
	var t uint64
	for _, b := range s.BytesByKind {
		t += b
	}
	return t
}

// Completer receives a completion callback carrying a caller-packed argument.
// It exists so high-rate callers (the NOMAD back-end's per-burst completions)
// can route completions through one long-lived object + a uint64 instead of
// allocating a fresh closure per burst.
type Completer interface {
	Complete(arg uint64)
}

// request is pooled: Device.getRequest/release recycle instances through a
// freelist, and completeFn is built once per instance so steady-state traffic
// schedules completions without allocating.
type request struct {
	addr       uint64
	row        uint64
	arrival    uint64
	arg        uint64
	done       mem.Done
	comp       Completer
	probe      *mem.Probe // nil for untagged traffic
	ch         *channel
	completeFn func()
	kind       mem.Kind
	bank       int32
	write      bool
	priority   bool
}

type bank struct {
	openRow int64 // -1 = closed
	readyAt uint64
	// Per-bank row-buffer outcomes (Fig. 10's locality analysis at bank
	// granularity; exposed through the metrics registry).
	rowHits      uint64
	rowMisses    uint64
	rowConflicts uint64
}

type channel struct {
	idx       int // channel index within the device (trace labels)
	queue     []*request
	busFreeAt uint64
	inflight  int
	banks     []bank
}

// Device is one DRAM device instance bound to a simulation engine. It
// registers itself as a ticker that sleeps whenever no channel has both a
// queued request and a free in-flight slot; an enqueue or a completion
// wakes it and marks the channel ready. Callers enqueue requests with
// Access.
type Device struct {
	cfg     Config
	eng     *sim.Engine
	chans   []channel
	stats   Stats
	trace   *metrics.Trace
	devID   uint64 // trace device tag (0 = hbm, 1 = ddr)
	latHist *metrics.Histogram

	// mapAddr's fields: channel, then row within the channel, then bank.
	chanShift, rowShift, bankShift uint
	chanMask, bankMask             uint64
	maxQueue                       int
	// ready has bit i set when channel i may hold a queued request and a
	// free in-flight slot: enqueue sets it when the channel has a free slot,
	// complete when the channel has queued requests, and Tick clears it.
	ready uint64

	// free is the request freelist. The device is single-threaded (engine
	// discipline), so a plain slice beats sync.Pool and is deterministic.
	free []*request

	wake sim.Waker
}

// getRequest takes a request from the freelist, building the instance (and
// its permanent completion closure) only on first use.
func (d *Device) getRequest() *request {
	if n := len(d.free); n > 0 {
		r := d.free[n-1]
		d.free = d.free[:n-1]
		return r
	}
	r := &request{}
	r.completeFn = func() { d.complete(r) }
	return r
}

// complete fires when a request's data burst finishes: it frees the inflight
// slot, recycles the request, and only then invokes the caller's callback.
// Release-before-callback matters — the callback may re-enter Access and is
// then handed this same instance, which is fine because every field it needs
// was copied out first.
func (d *Device) complete(r *request) {
	c := r.ch
	c.inflight--
	if len(c.queue) > 0 {
		d.ready |= 1 << c.idx // the freed slot lets a queued request issue
		d.wake.Wake()
	}
	done, comp, arg := r.done, r.comp, r.arg
	r.done, r.comp, r.probe, r.ch = nil, nil, nil, nil
	d.free = append(d.free, r)
	if comp != nil {
		comp.Complete(arg)
	} else if done != nil {
		done()
	}
}

// New creates a Device and registers its scheduler with the engine. The
// channel count, the banks per channel and the blocks per row must be powers
// of two, and there are at most 64 channels (the ready mask's width).
func New(eng *sim.Engine, cfg Config) *Device {
	blocksPerRow := cfg.RowBytes / mem.BlockSize
	switch {
	case cfg.Channels <= 0 || cfg.Banks <= 0:
		panic("dram: channels and banks must be positive")
	case cfg.Channels&(cfg.Channels-1) != 0:
		panic("dram: channel count must be a power of two")
	case cfg.Channels > 64:
		panic(fmt.Sprintf("dram: %d channels exceed the ready mask's 64", cfg.Channels))
	case cfg.Banks&(cfg.Banks-1) != 0:
		panic("dram: bank count must be a power of two")
	case blocksPerRow == 0 || blocksPerRow&(blocksPerRow-1) != 0:
		panic(fmt.Sprintf("dram: a %d-byte row is not a power-of-two number of blocks", cfg.RowBytes))
	}
	d := &Device{
		cfg:       cfg,
		eng:       eng,
		chans:     make([]channel, cfg.Channels),
		chanShift: uint(bits.TrailingZeros(uint(cfg.Channels))),
		rowShift:  uint(bits.TrailingZeros64(blocksPerRow)),
		bankShift: uint(bits.TrailingZeros(uint(cfg.Banks))),
		chanMask:  uint64(cfg.Channels - 1),
		bankMask:  uint64(cfg.Banks - 1),
		maxQueue:  64,
	}
	for i := range d.chans {
		d.chans[i].idx = i
		d.chans[i].banks = make([]bank, cfg.Banks)
		for b := range d.chans[i].banks {
			d.chans[i].banks[b].openRow = -1
		}
	}
	eng.AddTicker(d)
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a pointer to the device's counters.
func (d *Device) Stats() *Stats { return &d.stats }

// SetTrace attaches an event trace (row-conflict events) under device tag
// dev, which the exporter unpacks to group banks per device (0 = hbm,
// 1 = ddr). Nil disables.
func (d *Device) SetTrace(t *metrics.Trace, dev uint64) {
	d.trace = t
	d.devID = dev
}

// RegisterMetrics exposes the device's counters in reg under prefix (e.g.
// "dram.hbm"): device-wide totals, per-kind bytes, and per-bank row-buffer
// outcomes. Registration is lazy — snapshots read the live fields — so the
// scheduling hot path is untouched.
func (d *Device) RegisterMetrics(reg *metrics.Registry, prefix string) {
	s := &d.stats
	reg.CounterFunc(prefix+".reads", func() uint64 { return s.Reads })
	reg.CounterFunc(prefix+".writes", func() uint64 { return s.Writes })
	reg.CounterFunc(prefix+".row_hits", func() uint64 { return s.RowHits })
	reg.CounterFunc(prefix+".row_misses", func() uint64 { return s.RowMisses })
	reg.CounterFunc(prefix+".row_conflicts", func() uint64 { return s.RowConflicts })
	reg.CounterFunc(prefix+".bus_busy_cycles", func() uint64 { return s.BusBusyCycles })
	reg.CounterFunc(prefix+".read_latency_sum", func() uint64 { return s.ReadLatencySum })
	reg.CounterFunc(prefix+".read_count", func() uint64 { return s.ReadCount })
	reg.CounterFunc(prefix+".queue_full_rejects", func() uint64 { return s.QueueFullRejects })
	d.latHist = reg.Histogram(prefix + ".read_latency")
	for k := 0; k < mem.NumKinds; k++ {
		k := k
		reg.CounterFunc(fmt.Sprintf("%s.bytes.%s", prefix, mem.Kind(k)),
			func() uint64 { return s.BytesByKind[k] })
	}
	for ci := range d.chans {
		for bi := range d.chans[ci].banks {
			b := &d.chans[ci].banks[bi]
			bp := fmt.Sprintf("%s.ch%d.bank%d", prefix, ci, bi)
			reg.CounterFunc(bp+".row_hits", func() uint64 { return b.rowHits })
			reg.CounterFunc(bp+".row_misses", func() uint64 { return b.rowMisses })
			reg.CounterFunc(bp+".row_conflicts", func() uint64 { return b.rowConflicts })
		}
	}
}

// ChannelOf returns the channel index a byte address maps to. Blocks
// interleave across channels so a 4 KB page spreads over all channels.
func (d *Device) ChannelOf(addr uint64) int {
	return int(mem.BlockNum(addr) & d.chanMask)
}

// mapAddr computes (channel, bank, row) for a byte address. Channel-local
// consecutive blocks share a row, and consecutive rows rotate across banks.
func (d *Device) mapAddr(addr uint64) (ch, bk int, row uint64) {
	blk := mem.BlockNum(addr)
	ch = int(blk & d.chanMask)
	rowGlobal := blk >> d.chanShift >> d.rowShift
	bk = int(rowGlobal & d.bankMask)
	row = rowGlobal >> d.bankShift
	return ch, bk, row
}

// Access enqueues one 64 B burst. done is invoked when the data burst
// completes (reads: data available; writes: data accepted). Access never
// rejects: the channel queue is unbounded, and a request that finds 64 or
// more waiting still joins it (Stats.QueueFullRejects counts those), so
// callers can treat the device as always accepting (back-pressure manifests
// as latency).
func (d *Device) Access(addr uint64, write bool, kind mem.Kind, priority bool, done mem.Done) {
	d.AccessProbe(addr, write, kind, priority, nil, done)
}

// AccessProbe is Access carrying a latency-provenance probe. While the
// request sits in the channel queue the probe reads StallDRAMQueue; at
// issue it switches to the dominant cost the burst pays (row conflict >
// bus wait > plain service). p may be nil (Access delegates here).
func (d *Device) AccessProbe(addr uint64, write bool, kind mem.Kind, priority bool, p *mem.Probe, done mem.Done) {
	r := d.getRequest()
	r.done = done
	r.probe = p
	d.enqueue(r, addr, write, kind, priority)
}

// AccessArg is Access with a Completer callback: on completion,
// comp.Complete(arg) fires instead of a done closure. The allocation-free
// path for callers issuing many bursts against one long-lived object.
func (d *Device) AccessArg(addr uint64, write bool, kind mem.Kind, priority bool, comp Completer, arg uint64) {
	r := d.getRequest()
	r.comp = comp
	r.arg = arg
	d.enqueue(r, addr, write, kind, priority)
}

func (d *Device) enqueue(r *request, addr uint64, write bool, kind mem.Kind, priority bool) {
	ch, bk, row := d.mapAddr(addr)
	if r.probe != nil {
		r.probe.SetCause(mem.StallDRAMQueue)
	}
	r.addr, r.write, r.kind, r.priority = addr, write, kind, priority
	r.arrival = d.eng.Now()
	r.bank, r.row = int32(bk), row
	c := &d.chans[ch]
	if len(c.queue) >= d.maxQueue {
		d.stats.QueueFullRejects++
	}
	c.queue = append(c.queue, r)
	if c.inflight < d.cfg.InflightPerChannel {
		d.ready |= 1 << ch
		d.wake.Wake()
	}
}

// QueueLen returns the current queue length of channel ch (for tests and
// back-pressure-aware callers).
func (d *Device) QueueLen(ch int) int { return len(d.chans[ch].queue) }

// Promote raises a queued request for the given 64 B block to the priority
// class (critical-data-first for a demand that arrived after the request was
// issued, e.g. an MSHR/PCSHR coalesce on an in-flight line fill). It reports
// whether a queued request matched; a false return usually means the request
// already left the queue.
func (d *Device) Promote(addr uint64) bool {
	ch, _, _ := d.mapAddr(addr)
	block := mem.BlockAligned(addr)
	for _, r := range d.chans[ch].queue {
		if mem.BlockAligned(r.addr) == block && !r.priority {
			r.priority = true
			return true
		}
	}
	return false
}

// SetWaker implements sim.Sleeper.
func (d *Device) SetWaker(w sim.Waker) { d.wake = w }

// Tick drives the ready channels' schedulers one cycle, in channel order,
// then sleeps: afterwards every channel has drained its queue or filled its
// in-flight slots, so only an enqueue or a completion can give the device
// work. These are exactly the channels a sweep over all of them would issue
// from: only enqueue and complete make a channel able to issue, both mark
// it ready, and every channel ticked ends drained or full.
func (d *Device) Tick(now uint64) {
	for m := d.ready; m != 0; m &= m - 1 {
		d.tickChannel(&d.chans[bits.TrailingZeros64(m)], now)
	}
	d.ready = 0
	d.wake.Sleep()
}

// Settle implements sim.Sleeper. Nothing accrues per idle cycle:
// BusBusyCycles and every other counter are charged in bulk at issue time
// (issue reserves the whole TBL bus window at once), and bank and bus
// occupancy are absolute cycle stamps (busFreeAt/readyAt).
func (d *Device) Settle(now uint64) {}

// AuditSleep is the engine's invariants-build check on a sleeping device:
// no channel is marked ready, and none holds a queued request it has a free
// in-flight slot for.
func (d *Device) AuditSleep(now uint64) {
	check.Assert(d.ready == 0, "dram %s: asleep at %d with ready channels %#x", d.cfg.Name, now, d.ready)
	for i := range d.chans {
		c := &d.chans[i]
		check.Assert(len(c.queue) == 0 || c.inflight >= d.cfg.InflightPerChannel,
			"dram %s ch%d: asleep at %d with %d queued and %d in flight",
			d.cfg.Name, c.idx, now, len(c.queue), c.inflight)
	}
}

func (d *Device) tickChannel(c *channel, now uint64) {
	for c.inflight < d.cfg.InflightPerChannel && len(c.queue) > 0 {
		idx := d.pick(c)
		r := c.queue[idx]
		c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
		c.queue[:cap(c.queue)][len(c.queue)] = nil // drop the vacated slot's ref
		d.issue(c, r, now)
	}
	if check.Enabled {
		check.Assert(c.inflight >= 0 && c.inflight <= d.cfg.InflightPerChannel,
			"dram %s ch%d: inflight %d outside [0,%d]",
			d.cfg.Name, c.idx, c.inflight, d.cfg.InflightPerChannel)
	}
}

// pick implements priority > row-hit > age selection (FR-FCFS with
// critical-data-first), scanning the bounded channel queue.
func (d *Device) pick(c *channel) int {
	best := 0
	bestScore := d.score(c, c.queue[0])
	for i := 1; i < len(c.queue); i++ {
		if s := d.score(c, c.queue[i]); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

func (d *Device) score(c *channel, r *request) int {
	s := 0
	if r.priority {
		s += 4
	}
	if c.banks[r.bank].openRow == int64(r.row) {
		s += 2
	}
	return s
}

// issue computes the request's timing against bank and bus state, reserves
// the bus window, and schedules the completion callback.
func (d *Device) issue(c *channel, r *request, now uint64) {
	b := &c.banks[r.bank]
	prevBusFree, prevBankReady := c.busFreeAt, b.readyAt
	start := now
	if b.readyAt > start {
		start = b.readyAt
	}
	var rowReady uint64
	conflict := false
	switch {
	case b.openRow == int64(r.row):
		d.stats.RowHits++
		b.rowHits++
		rowReady = start
	case b.openRow == -1:
		d.stats.RowMisses++
		b.rowMisses++
		rowReady = start + d.cfg.Timing.TRCD
	default:
		conflict = true
		d.stats.RowConflicts++
		b.rowConflicts++
		d.trace.Emit(now, metrics.EvRowConflict, r.addr,
			d.devID<<32|uint64(c.idx)<<16|uint64(r.bank))
		rowReady = start + d.cfg.Timing.TRP + d.cfg.Timing.TRCD
	}
	b.openRow = int64(r.row)

	dataStart := rowReady + d.cfg.Timing.TCL
	busWait := c.busFreeAt > dataStart
	if busWait {
		dataStart = c.busFreeAt
	}
	dataEnd := dataStart + d.cfg.Timing.TBL
	if r.probe != nil {
		switch {
		case conflict:
			r.probe.SetCause(mem.StallRowConflict)
		case busWait:
			r.probe.SetCause(mem.StallBus)
		default:
			r.probe.SetCause(mem.StallDRAMService)
		}
	}
	c.busFreeAt = dataEnd
	// The bank can accept the next column command to the same row once
	// this one's data slot is reserved.
	b.readyAt = rowReady + d.cfg.Timing.TBL

	if check.Enabled {
		// Bank-state transitions never move time backwards: the open row is
		// the one just accessed, and the bus/bank reservations are monotone.
		check.Assert(b.openRow == int64(r.row),
			"dram %s ch%d bank%d: open row %d after access to row %d",
			d.cfg.Name, c.idx, r.bank, b.openRow, r.row)
		check.Assert(c.busFreeAt >= prevBusFree,
			"dram %s ch%d: bus reservation regressed %d -> %d",
			d.cfg.Name, c.idx, prevBusFree, c.busFreeAt)
		check.Assert(b.readyAt >= prevBankReady,
			"dram %s ch%d bank%d: readyAt regressed %d -> %d",
			d.cfg.Name, c.idx, r.bank, prevBankReady, b.readyAt)
		check.Assert(dataEnd >= dataStart && dataStart >= start && start >= now,
			"dram %s ch%d: burst window [%d,%d] precedes issue at %d",
			d.cfg.Name, c.idx, dataStart, dataEnd, now)
	}

	d.stats.BusBusyCycles += d.cfg.Timing.TBL
	d.stats.BytesByKind[r.kind] += mem.BlockSize
	if r.write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
		d.stats.ReadLatencySum += dataEnd - r.arrival
		d.stats.ReadCount++
		d.latHist.Observe(dataEnd - r.arrival)
	}

	c.inflight++
	r.ch = c
	d.eng.At(dataEnd, r.completeFn)
}

// PeakBandwidthBytesPerCycle returns the device's aggregate data-bus
// bandwidth (bytes per CPU cycle), used to convert measured byte counts into
// utilization and GB/s.
func (d *Device) PeakBandwidthBytesPerCycle() float64 {
	return float64(d.cfg.Channels) * float64(mem.BlockSize) / float64(d.cfg.Timing.TBL)
}

// String identifies the device.
func (d *Device) String() string {
	return fmt.Sprintf("%s(%dch x %dbk)", d.cfg.Name, d.cfg.Channels, d.cfg.Banks)
}

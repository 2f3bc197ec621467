package main

import (
	"fmt"
	"time"

	"nomad/internal/cache"
	"nomad/internal/core"
	"nomad/internal/cpu"
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/osmem"
	"nomad/internal/sim"
	"nomad/internal/system"
	"nomad/internal/tlb"
	"nomad/internal/workload"
)

// A micro-benchmark times a fixed number of calls into one layer's exported
// functions, with stub neighbours in place of the layers around it. Each
// reports host ns per operation, scaled by the reference kernel like the
// end-to-end timing.
type micro struct {
	name string
	ops  int
	// setup builds the layer in its steady state and returns the timed
	// body, which performs ops operations per call. The body is called
	// once per round on the same state.
	setup func(seed uint64, ops int) (func(), error)
}

var micros = []micro{
	{"sim.schedule_advance_ns", 200_000, setupSchedule},
	{"cpu.tick_active_ns", 200_000, setupTickActive},
	{"cpu.tick_blocked_ns", 1_000_000, setupTickBlocked},
	{"cache.access_hit_ns", 200_000, setupCacheHit},
	{"cache.access_miss_fill_ns", 50_000, setupCacheMissFill},
	{"tlb.translate_l1_hit_ns", 1_000_000, setupTLBL1Hit},
	{"tlb.translate_l2_hit_ns", 100_000, setupTLBL2Hit},
	{"tlb.walk_install_ns", 5_000, setupTLBWalk},
	{"core.frontend.tag_miss_ns", 5_000, setupTagMiss},
	{"core.backend.check_ns", 1_000_000, setupBackendCheck},
	{"core.backend.fill_ns", 400, setupBackendFill},
	{"dram.access_ns", 50_000, setupDRAM},
	{"osmem.allocate_release_ns", 200_000, setupOSMem},
}

// runMicros sets every micro-benchmark up, then times rounds of all of them
// until the deadline passes and at least minRounds rounds are done. Each
// round is bracketed by the reference kernel. It returns the calibrated ns
// per operation of every round, by name.
func runMicros(seed uint64, deadline time.Time, minRounds int, cal *calibrator) (map[string][]float64, error) {
	bodies := make([]func(), len(micros))
	for i, m := range micros {
		body, err := m.setup(seed, m.ops)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		bodies[i] = body
	}
	out := make(map[string][]float64, len(micros))
	k := cal.kernel()
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		raw := make([]float64, len(micros))
		for i, m := range micros {
			start := time.Now()
			bodies[i]()
			raw[i] = float64(time.Since(start).Nanoseconds()) / float64(m.ops)
		}
		k2 := cal.kernel()
		for i, m := range micros {
			out[m.name] = append(out[m.name], calibrated(raw[i], (k+k2)/2))
		}
		k = k2
	}
	return out, nil
}

// xorshift is the micro-benchmarks' input generator, seeded from -seed.
type xorshift uint64

func newXorshift(seed uint64) *xorshift {
	x := xorshift(seed*0x9e3779b97f4a7c15 | 1)
	return &x
}

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// drain advances eng until *count reaches target, failing instead of
// spinning forever if the layer under test stops completing work.
func drain(eng *sim.Engine, count *int, target int) error {
	if !eng.RunUntil(func() bool { return *count >= target }, 100_000_000) {
		return fmt.Errorf("stalled at %d of %d completions", *count, target)
	}
	return nil
}

// must stops a timed body on an error. Each setup has already driven its
// layer the same way once, so an error here is a bug in the stubs.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// fifo completes callbacks a fixed number of cycles after they were
// queued. With one delay the due order is the queue order, so one
// prebuilt event per entry pops the head and nothing allocates per call.
type fifo struct {
	eng   *sim.Engine
	delay uint64
	q     []func()
	head  int
	popFn func()
}

func newFIFO(eng *sim.Engine, delay uint64) *fifo {
	f := &fifo{eng: eng, delay: delay}
	f.popFn = f.pop
	return f
}

func (f *fifo) push(fn func()) {
	f.q = append(f.q, fn)
	f.eng.Schedule(f.delay, f.popFn)
}

func (f *fifo) pop() {
	fn := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	if fn != nil {
		fn()
	}
}

// lowerStub is the level below a cache: every access completes after a
// fixed delay.
type lowerStub struct{ *fifo }

func (l lowerStub) Access(req *mem.Request, done mem.Done) { l.push(done) }

func setupSchedule(seed uint64, ops int) (func(), error) {
	eng := sim.New()
	rng := newXorshift(seed)
	fired := 0
	var ev func()
	ev = func() {
		fired++
		eng.Schedule(1+rng.next()%64, ev)
	}
	for i := 0; i < 256; i++ {
		eng.Schedule(1+rng.next()%64, ev)
	}
	if err := drain(eng, &fired, ops); err != nil {
		return nil, err
	}
	return func() { must(drain(eng, &fired, fired+ops)) }, nil
}

// portStub is a core's memory port: loads return after a fixed delay and
// stores are accepted at once.
type portStub struct{ f *fifo }

func (p portStub) Load(core int, vaddr uint64, probe *mem.Probe, done func()) { p.f.push(done) }
func (p portStub) Store(core int, vaddr uint64)                               {}

func newCore(seed uint64) (*cpu.Core, *sim.Engine, error) {
	spec, ok := workload.ByAbbr("cact")
	if !ok {
		return nil, nil, fmt.Errorf("no workload cact")
	}
	eng := sim.New()
	c := cpu.New(0, cpu.DefaultConfig(), portStub{newFIFO(eng, 40)}, workload.NewStream(spec, seed))
	eng.AddTicker(c)
	return c, eng, nil
}

func setupTickActive(seed uint64, ops int) (func(), error) {
	_, eng, err := newCore(seed)
	if err != nil {
		return nil, err
	}
	eng.Run(10_000)
	return func() { eng.Run(uint64(ops)) }, nil
}

func setupTickBlocked(seed uint64, ops int) (func(), error) {
	c, eng, err := newCore(seed)
	if err != nil {
		return nil, err
	}
	eng.Run(10_000)
	c.Block()
	// Fast-forward would skip the blocked cycles without ticking them; the
	// benchmark times the tick itself.
	eng.SetFastForward(false)
	return func() { eng.Run(uint64(ops)) }, nil
}

func setupCacheHit(seed uint64, ops int) (func(), error) {
	eng := sim.New()
	cfg := system.DefaultConfig().L1
	c := cache.New(eng, cfg, lowerStub{newFIFO(eng, 100)})
	const lines = 256 // half the L1: every access hits once warm
	done := 0
	count := func() { done++ }
	req := mem.Request{}
	for i := 0; i < lines; i++ {
		req.Addr = uint64(i) * mem.BlockSize
		c.Access(&req, count)
	}
	if err := drain(eng, &done, lines); err != nil {
		return nil, err
	}
	rng := newXorshift(seed)
	return func() {
		for i := 0; i < ops; i += 32 {
			for j := 0; j < 32; j++ {
				req.Addr = (rng.next() % lines) * mem.BlockSize
				c.Access(&req, nil)
			}
			eng.Run(cfg.Latency + 1)
		}
	}, nil
}

func setupCacheMissFill(seed uint64, ops int) (func(), error) {
	eng := sim.New()
	cfg := system.DefaultConfig().LLC
	c := cache.New(eng, cfg, lowerStub{newFIFO(eng, 100)})
	done := 0
	count := func() { done++ }
	req := mem.Request{}
	next := uint64(0)
	rng := newXorshift(seed)
	// batch stays below the MSHR count, so no access waits for an MSHR.
	batch := cfg.MSHRs / 2
	access := func(n int) error {
		target := done + n
		for i := 0; i < n; i++ {
			// Every block is new, so every access misses and every fill
			// evicts; 3 in 10 are writes, so some victims are dirty.
			req.Addr = next * mem.BlockSize
			req.Write = rng.next()%10 < 3
			next++
			c.Access(&req, count)
		}
		return drain(eng, &done, target)
	}
	// Fill every way of every set first.
	for i := 0; i < cfg.Sets*cfg.Ways; i += batch {
		if err := access(batch); err != nil {
			return nil, err
		}
	}
	return func() {
		for i := 0; i < ops; i += batch {
			must(access(batch))
		}
	}, nil
}

// walkerStub resolves a TLB miss after a fixed delay, mapping each page to
// a frame of the same number.
type walkerStub struct{ *fifo }

func (w walkerStub) Walk(coreID int, vaddr uint64, done func(tlb.Entry)) {
	vpn := mem.PageNum(vaddr)
	w.push(func() { done(tlb.Entry{VPN: vpn, Frame: vpn, Space: mem.SpacePhysical}) })
}

// newTLB builds a TLB with pages [0, pages) translated and resident.
func newTLB(pages int) (*tlb.TLB, *sim.Engine, *int, func(tlb.Entry), error) {
	eng := sim.New()
	t := tlb.New(eng, 0, tlb.DefaultConfig(), walkerStub{newFIFO(eng, core.DefaultFrontendConfig().WalkLatency)}, nil)
	done := 0
	count := func(tlb.Entry) { done++ }
	for p := 0; p < pages; p++ {
		t.Translate(uint64(p)*mem.PageSize, count)
	}
	if err := drain(eng, &done, pages); err != nil {
		return nil, nil, nil, nil, err
	}
	return t, eng, &done, count, nil
}

func setupTLBL1Hit(seed uint64, ops int) (func(), error) {
	const pages = 32 // half the L1 TLB
	t, _, _, count, err := newTLB(pages)
	if err != nil {
		return nil, err
	}
	rng := newXorshift(seed)
	return func() {
		for i := 0; i < ops; i++ {
			t.Translate((rng.next()%pages)*mem.PageSize, count)
		}
	}, nil
}

func setupTLBL2Hit(seed uint64, ops int) (func(), error) {
	// 512 pages overflow the 64-entry L1 and fit the 1536-entry L2, so a
	// cyclic sweep misses the L1 and hits the L2 every time.
	const pages = 512
	t, eng, done, count, err := newTLB(pages)
	if err != nil {
		return nil, err
	}
	lat := tlb.DefaultConfig().L2Latency
	p := uint64(seed % pages)
	return func() {
		for i := 0; i < ops; i += 32 {
			target := *done + 32
			for j := 0; j < 32; j++ {
				t.Translate(p*mem.PageSize, count)
				p = (p + 1) % pages
			}
			eng.Run(lat + 1)
			if *done != target {
				panic(fmt.Sprintf("tlb: %d of %d L2 hits completed", *done, target))
			}
		}
	}, nil
}

func setupTLBWalk(seed uint64, ops int) (func(), error) {
	// Start with the L2 full, so every walk installs over an LRU victim.
	pages := tlb.DefaultConfig().L2Entries
	t, eng, done, count, err := newTLB(pages)
	if err != nil {
		return nil, err
	}
	next := uint64(pages) + seed%1024
	return func() {
		for i := 0; i < ops; i += 32 {
			target := *done + 32
			for j := 0; j < 32; j++ {
				t.Translate(next*mem.PageSize, count)
				next++
			}
			must(drain(eng, done, target))
		}
	}, nil
}

// threadStub, flushStub and fillStub stand in for the cores, the SRAM
// hierarchy and the NOMAD back-end around the OS front-end. The back-end
// accepts every fill and writeback after a fixed delay.
type threadStub struct{}

func (threadStub) Block()   {}
func (threadStub) Unblock() {}

type flushStub struct{}

func (flushStub) FlushFrame(cfn uint64) {}

type fillStub struct{ f *fifo }

func (b fillStub) Send(cmd core.Command, accepted mem.Done) { b.f.push(accepted) }

func setupTagMiss(seed uint64, ops int) (func(), error) {
	eng := sim.New()
	// A small DRAM cache keeps the eviction daemon running, as it does in
	// the steady state of a full-size run.
	mm := osmem.New(1, 4096)
	f := core.NewFrontend(eng, core.DefaultFrontendConfig(), mm, []core.Thread{threadStub{}},
		flushStub{}, fillStub{newFIFO(eng, 20)}, nil, nil)
	done := 0
	count := func(tlb.Entry) { done++ }
	next := seed % 1024
	walk := func(n int) error {
		target := done + n
		for i := 0; i < n; i++ {
			f.Walk(0, next*mem.PageSize, count)
			next++
		}
		return drain(eng, &done, target)
	}
	if err := walk(8192); err != nil {
		return nil, err
	}
	return func() {
		for i := 0; i < ops; i += 16 {
			must(walk(16))
		}
	}, nil
}

func newBackend() (*core.Backend, *sim.Engine) {
	eng := sim.New()
	cfg := system.DefaultConfig()
	return core.NewBackend(eng, cfg.Backend, dram.New(eng, cfg.HBM), dram.New(eng, cfg.DDR)), eng
}

func setupBackendCheck(seed uint64, ops int) (func(), error) {
	b, _ := newBackend()
	regs := system.DefaultConfig().Backend.PCSHRs
	// Occupy every PCSHR with a fill and never advance the clock, so the
	// checks below run against a full CAM.
	for i := 0; i < regs; i++ {
		b.Send(core.Command{Type: core.CmdFill, PFN: uint64(i), CFN: uint64(i)}, nil)
	}
	if n := b.ActivePCSHRs(); n != regs {
		return nil, fmt.Errorf("%d of %d PCSHRs active", n, regs)
	}
	rng := newXorshift(seed)
	return func() {
		for i := 0; i < ops; i++ {
			r := rng.next()
			// Frames past the active fills: every check is a data hit.
			b.CheckCacheAccess(uint64(regs)+r%4096, uint(r>>32)%mem.SubBlocksPerPage, false, nil, nil)
		}
	}, nil
}

func setupBackendFill(seed uint64, ops int) (func(), error) {
	b, eng := newBackend()
	regs := uint64(system.DefaultConfig().Backend.PCSHRs)
	next := seed % 1024
	idle := func() bool { return b.ActivePCSHRs() == 0 }
	fill := func(n uint64) error {
		for i := uint64(0); i < n; i++ {
			b.Send(core.Command{Type: core.CmdFill, PFN: next, CFN: next % 4096, Offset: (next * 64) % mem.PageSize}, nil)
			next++
		}
		if !eng.RunUntil(idle, 100_000_000) {
			return fmt.Errorf("fills did not complete")
		}
		return nil
	}
	if err := fill(regs); err != nil {
		return nil, err
	}
	return func() {
		for i := uint64(0); i < uint64(ops); i += regs {
			must(fill(regs))
		}
	}, nil
}

func setupDRAM(seed uint64, ops int) (func(), error) {
	eng := sim.New()
	d := dram.New(eng, system.DefaultConfig().HBM)
	done := 0
	count := func() { done++ }
	rng := newXorshift(seed)
	access := func(n int) error {
		target := done + n
		for i := 0; i < n; i++ {
			r := rng.next()
			// Half the bursts stream through one region (row hits), half
			// land anywhere in 1 GB (row misses and conflicts).
			addr := (r >> 8) % (1 << 30)
			if r&1 == 0 {
				addr = uint64(done+i) * mem.BlockSize
			}
			d.Access(mem.BlockAligned(addr), r&6 == 0, mem.KindDemand, false, count)
		}
		return drain(eng, &done, target)
	}
	if err := access(1024); err != nil {
		return nil, err
	}
	return func() {
		for i := 0; i < ops; i += 64 {
			must(access(64))
		}
	}, nil
}

func setupOSMem(seed uint64, ops int) (func(), error) {
	const frames, pages, resident = 4096, 8192, 2048
	mm := osmem.New(1, frames)
	pfns := make([]uint64, pages)
	for i := range pfns {
		pfns[i] = mm.PTEOf(0, uint64(i)).Frame
	}
	// Keep `resident` pages cached, releasing the oldest before each
	// allocation, as the eviction daemon does.
	ring := make([]uint64, 0, resident)
	head := 0
	p := int(seed % pages)
	step := func() {
		if len(ring) == resident {
			mm.ReleaseFrame(ring[head])
		}
		pfn := pfns[p]
		p = (p + 1) % pages
		cfn := mm.AllocateFrame(pfn)
		mm.SetCached(pfn, cfn)
		if len(ring) < resident {
			ring = append(ring, cfn)
			return
		}
		ring[head] = cfn
		head = (head + 1) % resident
	}
	for i := 0; i < resident; i++ {
		step()
	}
	return func() {
		for i := 0; i < ops; i++ {
			step()
		}
	}, nil
}

package core

import (
	"testing"
	"testing/quick"

	"nomad/internal/check"
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/sim"
)

func testDevices(eng *sim.Engine) (hbm, ddr *dram.Device) {
	return dram.New(eng, dram.HBMConfig()), dram.New(eng, dram.DDRConfig())
}

func newTestBackend(eng *sim.Engine, cfg BackendConfig) (*Backend, *dram.Device, *dram.Device) {
	hbm, ddr := testDevices(eng)
	return NewBackend(eng, cfg, hbm, ddr), hbm, ddr
}

func waitFor(t *testing.T, eng *sim.Engine, pred func() bool, max uint64) {
	t.Helper()
	if !eng.RunUntil(pred, max) {
		t.Fatal("condition never satisfied")
	}
}

func TestFillCompletes(t *testing.T) {
	eng := sim.New()
	b, hbm, ddr := newTestBackend(eng, DefaultBackendConfig())
	var completed []Command
	b.onComplete = func(c Command) { completed = append(completed, c) }

	accepted := false
	b.Send(Command{Type: CmdFill, PFN: 7, CFN: 3, Offset: 256}, func() { accepted = true })
	if !accepted {
		t.Fatal("fill not accepted immediately with free PCSHRs")
	}
	if !b.InTransfer(3) {
		t.Fatal("CFN 3 not marked in transfer")
	}
	waitFor(t, eng, func() bool { return len(completed) == 1 }, 200_000)
	if b.InTransfer(3) {
		t.Fatal("CFN 3 still in transfer after completion")
	}
	if ddr.Stats().Reads != 64 {
		t.Fatalf("DDR fill reads = %d, want 64", ddr.Stats().Reads)
	}
	if hbm.Stats().Writes != 64 {
		t.Fatalf("HBM fill writes = %d, want 64", hbm.Stats().Writes)
	}
	if hbm.Stats().BytesByKind[mem.KindFill] != 64*64 {
		t.Fatalf("HBM fill bytes = %d", hbm.Stats().BytesByKind[mem.KindFill])
	}
	if b.Stats().Fills != 1 {
		t.Fatalf("fills = %d", b.Stats().Fills)
	}
	if b.ActivePCSHRs() != 0 {
		t.Fatalf("PCSHRs still active: %d", b.ActivePCSHRs())
	}
}

func TestWritebackCompletes(t *testing.T) {
	eng := sim.New()
	b, hbm, ddr := newTestBackend(eng, DefaultBackendConfig())
	done := false
	b.onComplete = func(Command) { done = true }
	b.Send(Command{Type: CmdWriteback, PFN: 9, CFN: 4}, nil)
	waitFor(t, eng, func() bool { return done }, 200_000)
	if hbm.Stats().Reads != 64 || ddr.Stats().Writes != 64 {
		t.Fatalf("writeback moved %d HBM reads / %d DDR writes", hbm.Stats().Reads, ddr.Stats().Writes)
	}
	if ddr.Stats().BytesByKind[mem.KindWriteback] != 64*64 {
		t.Fatal("writeback bytes miscategorized")
	}
}

func TestCriticalDataFirst(t *testing.T) {
	eng := sim.New()
	b, _, _ := newTestBackend(eng, DefaultBackendConfig())
	// Demand offset points at sub-block 40.
	b.Send(Command{Type: CmdFill, PFN: 1, CFN: 1, Offset: 40 * 64}, nil)
	// Wait until the first sub-block lands in the buffer.
	r := b.byCFN[1]
	waitFor(t, eng, func() bool { return r.bvec != 0 }, 50_000)
	if r.bvec&(1<<40) == 0 {
		t.Fatalf("first arrived sub-block not the prioritized one: bvec=%x", r.bvec)
	}
}

func TestDataHitNoMatch(t *testing.T) {
	eng := sim.New()
	b, _, _ := newTestBackend(eng, DefaultBackendConfig())
	b.Send(Command{Type: CmdFill, PFN: 1, CFN: 1}, nil)
	if got := b.CheckCacheAccess(2, 0, false, nil, func() {}); got != DataHit {
		t.Fatalf("access to idle CFN = %v, want DataHit", got)
	}
	if b.Stats().DataHits != 1 {
		t.Fatalf("data hits = %d", b.Stats().DataHits)
	}
}

func TestReadDataMissParksAndWakes(t *testing.T) {
	eng := sim.New()
	b, _, _ := newTestBackend(eng, DefaultBackendConfig())
	b.Send(Command{Type: CmdFill, PFN: 1, CFN: 5, Offset: 0}, nil)
	served := false
	res := b.CheckCacheAccess(5, 63, false, nil, func() { served = true })
	if res != Parked {
		t.Fatalf("miss on un-arrived sub-block = %v, want Parked", res)
	}
	waitFor(t, eng, func() bool { return served }, 200_000)
	if b.Stats().SubEntryWaits != 1 {
		t.Fatalf("sub-entry waits = %d", b.Stats().SubEntryWaits)
	}
}

func TestBufferHit(t *testing.T) {
	eng := sim.New()
	b, hbm, _ := newTestBackend(eng, DefaultBackendConfig())
	b.Send(Command{Type: CmdFill, PFN: 1, CFN: 6, Offset: 0}, nil)
	r := b.byCFN[6]
	waitFor(t, eng, func() bool { return r.bvec&1 != 0 }, 50_000)
	demandBefore := hbm.Stats().BytesByKind[mem.KindDemand]
	served := false
	res := b.CheckCacheAccess(6, 0, false, nil, func() { served = true })
	if res != ServedFromBuffer {
		t.Fatalf("arrived sub-block access = %v, want ServedFromBuffer", res)
	}
	waitFor(t, eng, func() bool { return served }, 1000)
	if hbm.Stats().BytesByKind[mem.KindDemand] != demandBefore {
		t.Fatal("buffer hit consumed on-package bandwidth")
	}
	if b.Stats().BufferHits != 1 {
		t.Fatalf("buffer hits = %d", b.Stats().BufferHits)
	}
}

func TestWriteMissAbsorbed(t *testing.T) {
	eng := sim.New()
	cfg := DefaultBackendConfig()
	b, _, ddr := newTestBackend(eng, cfg)
	done := false
	b.onComplete = func(Command) { done = true }
	b.Send(Command{Type: CmdFill, PFN: 2, CFN: 7, Offset: 0}, nil)
	// Immediately write sub-block 63, before its read is issued.
	wrote := false
	if res := b.CheckCacheAccess(7, 63, true, nil, func() { wrote = true }); res != Absorbed {
		t.Fatalf("write miss = %v, want Absorbed", res)
	}
	waitFor(t, eng, func() bool { return done && wrote }, 200_000)
	if ddr.Stats().Reads != 63 {
		t.Fatalf("DDR reads = %d, want 63 (one absorbed)", ddr.Stats().Reads)
	}
	if b.Stats().WriteMissAbsorbed != 1 {
		t.Fatalf("absorbed = %d", b.Stats().WriteMissAbsorbed)
	}
}

func TestSubEntryOverflow(t *testing.T) {
	eng := sim.New()
	cfg := DefaultBackendConfig()
	cfg.SubEntries = 2
	b, _, _ := newTestBackend(eng, cfg)
	b.Send(Command{Type: CmdFill, PFN: 1, CFN: 8, Offset: 0}, nil)
	served := 0
	for si := uint(50); si < 54; si++ {
		b.CheckCacheAccess(8, si, false, nil, func() { served++ })
	}
	if b.Stats().SubEntryOverflows != 2 {
		t.Fatalf("overflows = %d, want 2", b.Stats().SubEntryOverflows)
	}
	waitFor(t, eng, func() bool { return served == 4 }, 300_000)
}

func TestPCSHRExhaustionDelaysAcceptance(t *testing.T) {
	eng := sim.New()
	cfg := DefaultBackendConfig()
	cfg.PCSHRs = 2
	b, _, _ := newTestBackend(eng, cfg)
	accepted := 0
	for i := uint64(0); i < 3; i++ {
		b.Send(Command{Type: CmdFill, PFN: i, CFN: i}, func() { accepted++ })
	}
	if accepted != 2 {
		t.Fatalf("accepted = %d immediately, want 2 (PCSHRs exhausted)", accepted)
	}
	waitFor(t, eng, func() bool { return accepted == 3 }, 300_000)
	if b.Stats().AcceptWaitSum == 0 {
		t.Fatal("third command accepted with zero wait")
	}
}

func TestAreaOptimizedBufferSharing(t *testing.T) {
	eng := sim.New()
	cfg := DefaultBackendConfig()
	cfg.PCSHRs = 4
	cfg.CopyBuffers = 1
	b, _, _ := newTestBackend(eng, cfg)
	completed := 0
	b.onComplete = func(Command) { completed++ }
	accepted := 0
	for i := uint64(0); i < 4; i++ {
		b.Send(Command{Type: CmdFill, PFN: i, CFN: i}, func() { accepted++ })
	}
	if accepted != 4 {
		t.Fatalf("accepted = %d, want 4 (PCSHRs available even without buffers)", accepted)
	}
	waitFor(t, eng, func() bool { return completed == 4 }, 2_000_000)
	if b.Stats().BufferWaitSum == 0 {
		t.Fatal("no buffer waiting recorded with 1 buffer for 4 commands")
	}
}

func TestFillsPreemptWritebackAcceptance(t *testing.T) {
	eng := sim.New()
	cfg := DefaultBackendConfig()
	cfg.PCSHRs = 1
	b, _, _ := newTestBackend(eng, cfg)
	var order []CommandType
	b.Send(Command{Type: CmdWriteback, PFN: 1, CFN: 1}, func() { order = append(order, CmdWriteback) })
	// Queue one writeback and one fill behind the busy register.
	b.Send(Command{Type: CmdWriteback, PFN: 2, CFN: 2}, func() { order = append(order, CmdWriteback) })
	b.Send(Command{Type: CmdFill, PFN: 3, CFN: 3}, func() { order = append(order, CmdFill) })
	waitFor(t, eng, func() bool { return len(order) == 3 }, 1_000_000)
	if order[1] != CmdFill {
		t.Fatalf("acceptance order = %v; fill should preempt queued writeback", order)
	}
}

func TestDistributedGrouping(t *testing.T) {
	eng := sim.New()
	cfg := DefaultBackendConfig()
	cfg.PCSHRs = 16
	cfg.Distributed = true
	b, _, _ := newTestBackend(eng, cfg)
	if len(b.groups) != 8 {
		t.Fatalf("groups = %d, want 8 (one per HBM channel)", len(b.groups))
	}
	// Consecutive CFNs (FIFO allocation) land in distinct groups.
	if b.groupOf(0) == b.groupOf(1) {
		t.Fatal("consecutive CFNs share a distributed group")
	}
	done := 0
	b.onComplete = func(Command) { done++ }
	for i := uint64(0); i < 8; i++ {
		b.Send(Command{Type: CmdFill, PFN: i, CFN: i}, nil)
	}
	if b.ActivePCSHRs() != 8 {
		t.Fatalf("active PCSHRs = %d, want 8 across groups", b.ActivePCSHRs())
	}
	waitFor(t, eng, func() bool { return done == 8 }, 1_000_000)
}

func TestPhysicalAccessDuringWriteback(t *testing.T) {
	eng := sim.New()
	b, _, _ := newTestBackend(eng, DefaultBackendConfig())
	b.Send(Command{Type: CmdWriteback, PFN: 11, CFN: 2}, nil)
	served := false
	res := b.CheckPhysicalAccess(11, 63, false, nil, func() { served = true })
	if res != Parked && res != ServedFromBuffer {
		t.Fatalf("physical access during writeback = %v", res)
	}
	waitFor(t, eng, func() bool { return served }, 300_000)
	if b.CheckPhysicalAccess(12, 0, false, nil, nil) != DataHit {
		t.Fatal("unrelated PFN matched a writeback PCSHR")
	}
}

// TestFillInvariantProperty: regardless of which sub-blocks demand writes
// absorb mid-fill, the command completes with exactly 64 destination writes
// and every parked access is eventually serviced.
func TestFillInvariantProperty(t *testing.T) {
	f := func(absorbs []uint8, reads []uint8) bool {
		eng := sim.New()
		b, hbm, _ := newTestBackend(eng, DefaultBackendConfig())
		completed := false
		b.onComplete = func(Command) { completed = true }
		b.Send(Command{Type: CmdFill, PFN: 1, CFN: 1, Offset: 0}, nil)
		pending := 0
		for _, a := range absorbs {
			b.CheckCacheAccess(1, uint(a%64), true, nil, func() { pending-- })
			pending++
		}
		for _, rd := range reads {
			if res := b.CheckCacheAccess(1, uint(rd%64), false, nil, func() { pending-- }); res != DataHit {
				pending++
			}
		}
		eng.RunUntil(func() bool { return completed && pending == 0 }, 2_000_000)
		return completed && pending == 0 && hbm.Stats().Writes == 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNoCriticalFirstAblation(t *testing.T) {
	eng := sim.New()
	cfg := DefaultBackendConfig()
	cfg.NoCriticalFirst = true
	b, _, _ := newTestBackend(eng, cfg)
	b.Send(Command{Type: CmdFill, PFN: 1, CFN: 1, Offset: 40 * 64}, nil)
	r := b.byCFN[1]
	waitFor(t, eng, func() bool { return r.bvec != 0 }, 50_000)
	// Without critical-data-first the fill is strictly sequential: the
	// demanded sub-block 40 cannot be the first to arrive.
	if r.bvec&(1<<40) != 0 && r.bvec == 1<<40 {
		t.Fatal("sequential-only fill delivered the demanded block first")
	}
	if r.bvec&1 == 0 && r.bvec&2 == 0 {
		t.Fatalf("sequential fill did not start at sub-block 0: bvec=%x", r.bvec)
	}
}

func TestCopier(t *testing.T) {
	eng := sim.New()
	hbm, ddr := testDevices(eng)
	c := NewCopier(4)
	done := false
	c.Copy(ddr, 5, hbm, 9, mem.KindFill, func() { done = true })
	waitFor(t, eng, func() bool { return done }, 200_000)
	if ddr.Stats().Reads != 64 || hbm.Stats().Writes != 64 {
		t.Fatalf("copier moved %d reads / %d writes", ddr.Stats().Reads, hbm.Stats().Writes)
	}
}

// TestCopierDoesNotAllocate: at steady state a page copy, with overlapping
// copies in flight and the completion of one starting the next, allocates
// nothing.
func TestCopierDoesNotAllocate(t *testing.T) {
	if check.Enabled {
		t.Skip("the invariants build allocates in its assertions")
	}
	eng := sim.New()
	hbm, ddr := testDevices(eng)
	c := NewCopier(0)
	n := 0
	done := func() { n++ }
	pred := func() bool { return n == 2 }
	frame := uint64(0)
	run := func() {
		n = 0
		c.Copy(ddr, frame, hbm, frame+1, mem.KindFill, done)
		c.Copy(hbm, frame+2, ddr, frame+3, mem.KindWriteback, done)
		frame = (frame + 4) % 64
		eng.RunUntil(pred, 200_000)
	}
	// Warm up until the engine's event-wheel buckets and the DRAM queues
	// have grown to their steady-state capacity (about 600 copy pairs here).
	for i := 0; i < 1000; i++ {
		run()
	}
	reads := ddr.Stats().Reads
	if a := testing.AllocsPerRun(100, run); a != 0 {
		t.Fatalf("Copy: %v allocs/op, want 0", a)
	}
	if got := ddr.Stats().Reads - reads; got != 101*mem.SubBlocksPerPage {
		t.Fatalf("%d DDR reads in 101 copies", got)
	}
}

func TestBackendString(t *testing.T) {
	eng := sim.New()
	b, _, _ := newTestBackend(eng, DefaultBackendConfig())
	if b.String() == "" {
		t.Fatal("empty String()")
	}
}

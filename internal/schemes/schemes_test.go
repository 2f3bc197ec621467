package schemes

import (
	"testing"

	"nomad/internal/check"
	"nomad/internal/core"
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/osmem"
	"nomad/internal/sim"
	"nomad/internal/tlb"
)

type env struct {
	eng *sim.Engine
	hbm *dram.Device
	ddr *dram.Device
	mm  *osmem.Manager
}

func newEnv(cores int, frames uint64) *env {
	eng := sim.New()
	return &env{
		eng: eng,
		hbm: dram.New(eng, dram.HBMConfig()),
		ddr: dram.New(eng, dram.DDRConfig()),
		mm:  osmem.New(cores, frames),
	}
}

type idleThread struct{ blocked int }

func (t *idleThread) Block()   { t.blocked++ }
func (t *idleThread) Unblock() { t.blocked-- }

func (e *env) threads(n int) []core.Thread {
	ts := make([]core.Thread, n)
	for i := range ts {
		ts[i] = &idleThread{}
	}
	return ts
}

// translate runs a walk to completion.
func translate(t *testing.T, e *env, s Scheme, coreID int, vaddr uint64) tlb.Entry {
	t.Helper()
	var got *tlb.Entry
	s.Walker().Walk(coreID, vaddr, func(en tlb.Entry) { got = &en })
	if !e.eng.RunUntil(func() bool { return got != nil }, 1_000_000) {
		t.Fatal("walk never completed")
	}
	return *got
}

// access issues one post-LLC request and waits for completion.
func access(t *testing.T, e *env, s Scheme, addr uint64, space mem.Space, write bool) {
	t.Helper()
	done := false
	req := mem.Request{Addr: mem.TagSpace(addr, space), Write: write, Kind: mem.KindDemand}
	s.Access(&req, func() { done = true })
	if write {
		e.eng.Run(2000) // writes may carry no completion guarantee
		return
	}
	if !e.eng.RunUntil(func() bool { return done }, 1_000_000) {
		t.Fatal("access never completed")
	}
}

func TestBaselineUsesOnlyDDR(t *testing.T) {
	e := newEnv(1, 64)
	b := NewBaseline(e.eng, e.ddr, e.mm, 100)
	en := translate(t, e, b, 0, 0x3000)
	if en.Space != mem.SpacePhysical {
		t.Fatal("baseline produced a cache-space translation")
	}
	access(t, e, b, mem.AddrInFrame(en.Frame, 0), mem.SpacePhysical, false)
	if e.hbm.Stats().TotalBytes() != 0 {
		t.Fatal("baseline touched on-package DRAM")
	}
	if e.ddr.Stats().Reads != 1 {
		t.Fatalf("DDR reads = %d", e.ddr.Stats().Reads)
	}
	if b.AccessStats().Reads != 1 {
		t.Fatal("access not recorded")
	}
}

func TestIdealCachesWithoutTraffic(t *testing.T) {
	e := newEnv(1, 64)
	s := NewIdeal(e.eng, e.hbm, e.ddr, e.mm, 100)
	en := translate(t, e, s, 0, 0)
	if en.Space != mem.SpaceCache {
		t.Fatal("ideal walk did not cache the page")
	}
	if s.TagMisses != 1 || s.WouldFillBytes != mem.PageSize {
		t.Fatalf("would-fill accounting: %d misses, %d bytes", s.TagMisses, s.WouldFillBytes)
	}
	if e.ddr.Stats().TotalBytes() != 0 {
		t.Fatal("ideal scheme generated off-package traffic")
	}
	access(t, e, s, mem.AddrInFrame(en.Frame, 64), mem.SpaceCache, false)
	if e.hbm.Stats().Reads != 1 {
		t.Fatal("cache-space read did not reach HBM")
	}
}

func TestIdealEvictionKeepsFreeFrames(t *testing.T) {
	e := newEnv(1, 128)
	s := NewIdeal(e.eng, e.hbm, e.ddr, e.mm, 10)
	for i := uint64(0); i < 500; i++ {
		translate(t, e, s, 0, i*mem.PageSize)
	}
	if e.mm.FreeFrames() == 0 {
		t.Fatal("ideal eviction failed to keep free frames")
	}
}

func TestTDCBlockingFill(t *testing.T) {
	e := newEnv(1, 1024)
	th := e.threads(1)
	s := NewTDC(e.eng, e.hbm, e.ddr, e.mm, core.DefaultFrontendConfig(), th, nil)
	start := e.eng.Now()
	en := translate(t, e, s, 0, 0)
	elapsed := e.eng.Now() - start
	if en.Space != mem.SpaceCache {
		t.Fatal("TDC tag miss did not cache the page")
	}
	// The thread waited for the whole 4 KB copy: 64 reads + 64 writes.
	if e.ddr.Stats().Reads != 64 || e.hbm.Stats().Writes != 64 {
		t.Fatalf("copy moved %d/%d", e.ddr.Stats().Reads, e.hbm.Stats().Writes)
	}
	if elapsed < 2000 {
		t.Fatalf("blocking fill took only %d cycles", elapsed)
	}
	if th[0].(*idleThread).blocked != 0 {
		t.Fatal("thread left blocked")
	}
	if !s.Drained() {
		t.Fatal("copies still in flight")
	}
}

func TestNOMADDecoupledFill(t *testing.T) {
	e := newEnv(1, 1024)
	th := e.threads(1)
	s := NewNOMAD(e.eng, e.hbm, e.ddr, e.mm, core.DefaultFrontendConfig(), core.DefaultBackendConfig(), th, nil)
	start := e.eng.Now()
	en := translate(t, e, s, 0, 0x40)
	elapsed := e.eng.Now() - start
	// Thread resumes after walk + tag management, not after the copy.
	want := core.DefaultFrontendConfig().WalkLatency + core.DefaultFrontendConfig().TagMgmtLatency
	if elapsed != want {
		t.Fatalf("NOMAD tag miss latency = %d, want %d", elapsed, want)
	}
	if s.Drained() {
		t.Fatal("fill completed implausibly fast (should be in flight)")
	}
	// Demand access to the faulted page: data miss handled by back-end.
	access(t, e, s, mem.AddrInFrame(en.Frame, 0x40), mem.SpaceCache, false)
	if s.Backend().Stats().DataMisses == 0 {
		t.Fatal("access during fill not detected as data miss")
	}
	if !e.eng.RunUntil(func() bool { return s.Drained() }, 1_000_000) {
		t.Fatal("fill never completed")
	}
	// After the fill, the same access is a data hit straight to HBM.
	before := s.Backend().Stats().DataHits
	access(t, e, s, mem.AddrInFrame(en.Frame, 0x40), mem.SpaceCache, false)
	if s.Backend().Stats().DataHits != before+1 {
		t.Fatal("post-fill access not a data hit")
	}
}

func TestNOMADNoteStoreSetsDirty(t *testing.T) {
	e := newEnv(1, 64)
	s := NewNOMAD(e.eng, e.hbm, e.ddr, e.mm, core.DefaultFrontendConfig(), core.DefaultBackendConfig(), e.threads(1), nil)
	en := translate(t, e, s, 0, 0)
	s.NoteStore(0, en)
	if !e.mm.CPDOf(en.Frame).DirtyInCache {
		t.Fatal("NoteStore did not set the DC bit")
	}
}

func TestTiDMetadataTraffic(t *testing.T) {
	e := newEnv(1, 1024)
	s := NewTiD(e.eng, e.hbm, e.ddr, e.mm, 100, TiDConfig{CapacityBytes: 1024 * mem.PageSize})
	en := translate(t, e, s, 0, 0)
	if en.Space != mem.SpacePhysical {
		t.Fatal("TiD should keep conventional translation")
	}
	// First access: miss -> 1 KB fill from DDR.
	access(t, e, s, mem.AddrInFrame(en.Frame, 0), mem.SpacePhysical, false)
	e.eng.Run(20000) // let the fill finish
	if got := e.ddr.Stats().BytesByKind[mem.KindFill]; got != 1024 {
		t.Fatalf("fill bytes = %d, want 1024 (one TiD line)", got)
	}
	if e.hbm.Stats().BytesByKind[mem.KindMetadata] == 0 {
		t.Fatal("no metadata traffic on access")
	}
	// Second access to the same line: hit, still costs metadata.
	meta := e.hbm.Stats().BytesByKind[mem.KindMetadata]
	access(t, e, s, mem.AddrInFrame(en.Frame, 64), mem.SpacePhysical, false)
	e.eng.Run(1000)
	if e.hbm.Stats().BytesByKind[mem.KindMetadata] <= meta {
		t.Fatal("hit consumed no metadata bandwidth")
	}
	if s.TiDStats().Hits != 1 || s.TiDStats().Misses != 1 {
		t.Fatalf("tid stats %+v", s.TiDStats())
	}
}

func TestTiDSetAssociativeEviction(t *testing.T) {
	e := newEnv(1, 1024)
	// Tiny cache: 4 lines = 1 set of 4 ways.
	s := NewTiD(e.eng, e.hbm, e.ddr, e.mm, 100, TiDConfig{CapacityBytes: 4 * 1024})
	// Write-allocate 5 distinct lines mapping to the single set: the LRU
	// victim (dirty) must be written back.
	for i := uint64(0); i < 5; i++ {
		done := false
		req := mem.Request{Addr: i * 1024, Write: true, Kind: mem.KindDemand}
		s.Access(&req, nil)
		e.eng.RunUntil(func() bool { done = s.Drained(); return done }, 1_000_000)
	}
	if s.TiDStats().Writebacks == 0 {
		t.Fatal("no writeback despite conflict eviction of dirty line")
	}
	if e.ddr.Stats().BytesByKind[mem.KindWriteback] == 0 {
		t.Fatal("writeback bytes missing on DDR")
	}
}

func TestNOMADPhysicalAccessPath(t *testing.T) {
	e := newEnv(1, 64)
	s := NewNOMAD(e.eng, e.hbm, e.ddr, e.mm, core.DefaultFrontendConfig(), core.DefaultBackendConfig(), e.threads(1), nil)
	// A non-cacheable page keeps a physical translation; its accesses go
	// to DDR through the writeback-PCSHR check.
	pte := e.mm.PTEOf(0, 4)
	pte.NonCacheable = true
	en := translate(t, e, s, 0, 4*mem.PageSize)
	if en.Space != mem.SpacePhysical {
		t.Fatal("NC page not physical")
	}
	access(t, e, s, mem.AddrInFrame(en.Frame, 0), mem.SpacePhysical, false)
	if e.ddr.Stats().Reads != 1 {
		t.Fatalf("DDR reads = %d", e.ddr.Stats().Reads)
	}
}

func TestNOMADVerifyLatency(t *testing.T) {
	e := newEnv(1, 64)
	bcfg := core.DefaultBackendConfig()
	bcfg.VerifyLatency = 50
	s := NewNOMAD(e.eng, e.hbm, e.ddr, e.mm, core.DefaultFrontendConfig(), bcfg, e.threads(1), nil)
	en := translate(t, e, s, 0, 0)
	if !e.eng.RunUntil(func() bool { return s.Drained() }, 1_000_000) {
		t.Fatal("fill stuck")
	}
	start := e.eng.Now()
	done := false
	req := mem.Request{Addr: mem.TagSpace(mem.AddrInFrame(en.Frame, 0), mem.SpaceCache)}
	s.Access(&req, func() { done = true })
	e.eng.RunUntil(func() bool { return done }, 100_000)
	if lat := e.eng.Now() - start; lat < 50 {
		t.Fatalf("access latency %d ignores the 50-cycle verification", lat)
	}
}

func TestTDCAccessPaths(t *testing.T) {
	e := newEnv(1, 1024)
	s := NewTDC(e.eng, e.hbm, e.ddr, e.mm, core.DefaultFrontendConfig(), e.threads(1), nil)
	en := translate(t, e, s, 0, 0)
	access(t, e, s, mem.AddrInFrame(en.Frame, 0), mem.SpaceCache, false)
	if s.AccessStats().CacheSpaceReads != 1 {
		t.Fatal("cache-space read not recorded")
	}
	access(t, e, s, 12345<<12, mem.SpacePhysical, true)
	if s.AccessStats().Writes != 1 {
		t.Fatal("write not recorded")
	}
	s.NoteStore(0, en)
	if !e.mm.CPDOf(en.Frame).DirtyInCache {
		t.Fatal("TDC NoteStore did not set the DC bit")
	}
	if s.Name() != "TDC" || s.Directory() == nil || s.Frontend() == nil {
		t.Fatal("TDC accessors broken")
	}
}

func TestTiDMSHRStall(t *testing.T) {
	e := newEnv(1, 1024)
	s := NewTiD(e.eng, e.hbm, e.ddr, e.mm, 100, TiDConfig{CapacityBytes: 1 << 20, MSHRs: 1})
	// Misses to distinct lines with one MSHR: all but the first stall, and
	// are admitted FIFO, across the pending queue's compaction.
	const n = 300
	var order []int
	reqs := make([]mem.Request, n)
	for i := range reqs {
		i := i
		reqs[i] = mem.Request{Addr: uint64(i) * 2048, Kind: mem.KindDemand}
		s.Access(&reqs[i], func() { order = append(order, i) })
	}
	if !e.eng.RunUntil(func() bool { return len(order) == n }, 10_000_000) {
		t.Fatalf("%d of %d stalled accesses completed", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("completion %d was access %d", i, got)
		}
	}
	if s.TiDStats().MSHRStalls != n-1 {
		t.Fatalf("MSHR stalls = %d, want %d", s.TiDStats().MSHRStalls, n-1)
	}
}

func TestTiDEarlyRestartOnArrivedSubBlock(t *testing.T) {
	e := newEnv(1, 1024)
	s := NewTiD(e.eng, e.hbm, e.ddr, e.mm, 100, TiDConfig{CapacityBytes: 1 << 20})
	first := false
	req := mem.Request{Addr: 0, Kind: mem.KindDemand}
	s.Access(&req, func() { first = true })
	// Wait for the demanded sub-block, then access it again mid-fill.
	if !e.eng.RunUntil(func() bool { return first }, 1_000_000) {
		t.Fatal("first access never completed")
	}
	if s.Drained() {
		t.Skip("fill already complete; early-restart window missed")
	}
	second := false
	req2 := mem.Request{Addr: 0, Kind: mem.KindDemand}
	s.Access(&req2, func() { second = true })
	if !e.eng.RunUntil(func() bool { return second }, 1_000_000) {
		t.Fatal("early-restart access never completed")
	}
}

func TestIdealNonCacheable(t *testing.T) {
	e := newEnv(1, 64)
	s := NewIdeal(e.eng, e.hbm, e.ddr, e.mm, 10)
	pte := e.mm.PTEOf(0, 2)
	pte.NonCacheable = true
	en := translate(t, e, s, 0, 2*mem.PageSize)
	if en.Space != mem.SpacePhysical {
		t.Fatal("NC page cached by Ideal")
	}
	s.NoteStore(0, en) // must not panic on physical entries
}

func TestSchemeNames(t *testing.T) {
	e := newEnv(1, 64)
	names := map[string]bool{}
	for _, s := range []Scheme{
		NewBaseline(e.eng, e.ddr, e.mm, 1),
		NewIdeal(e.eng, e.hbm, e.ddr, e.mm, 1),
		NewTiD(e.eng, e.hbm, e.ddr, e.mm, 1, TiDConfig{CapacityBytes: 1 << 20}),
	} {
		names[s.Name()] = true
	}
	if !names["Baseline"] || !names["Ideal"] || !names["TiD"] {
		t.Fatalf("names = %v", names)
	}
}

// TestAccessDoesNotAllocate: at steady state a post-LLC access allocates
// nothing. TiD's row covers a miss (MSHR, critical sub-block first, line
// fill, dirty victim writeback); TiD-MSHR-full issues two misses at once
// against one MSHR, so the second stalls and is re-looked-up through a
// pooled retry; Ideal's and TDC's mix cache-space (HBM) and physical (DDR)
// reads and writes.
func TestAccessDoesNotAllocate(t *testing.T) {
	if check.Enabled {
		t.Skip("the invariants build allocates in its assertions")
	}
	// One set of four ways: cycling through eight lines misses every time
	// and evicts the LRU line, dirty every other time.
	tid := func(mshrs int) func(e *env) Scheme {
		return func(e *env) Scheme {
			return NewTiD(e.eng, e.hbm, e.ddr, e.mm, 100, TiDConfig{CapacityBytes: 4 * 1024, MSHRs: mshrs})
		}
	}
	for _, tc := range []struct {
		name  string
		new   func(e *env) Scheme
		burst int // accesses issued at once
	}{
		{"TiD", tid(0), 1},
		{"TiD-MSHR-full", tid(1), 2},
		{"Baseline", func(e *env) Scheme { return NewBaseline(e.eng, e.ddr, e.mm, 100) }, 1},
		{"Ideal", func(e *env) Scheme { return NewIdeal(e.eng, e.hbm, e.ddr, e.mm, 100) }, 1},
		{"TDC", func(e *env) Scheme {
			return NewTDC(e.eng, e.hbm, e.ddr, e.mm, core.DefaultFrontendConfig(), e.threads(1), nil)
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(1, 1024)
			s := tc.new(e)
			n := 0
			done := func() { n++ }
			pred := func() bool { return n == tc.burst && s.Drained() }
			var req mem.Request
			i, completed := uint64(0), 0
			access := func() {
				n = 0
				for k := 0; k < tc.burst; k++ {
					space := mem.SpacePhysical
					if i%3 == 0 {
						space = mem.SpaceCache
					}
					req = mem.Request{Addr: mem.TagSpace(i%8*1024+i%16*mem.BlockSize, space), Write: i%2 == 0, Kind: mem.KindDemand}
					i++
					s.Access(&req, done)
				}
				if e.eng.RunUntil(pred, 1_000_000) {
					completed += tc.burst
				}
			}
			// One write and one read per op, so that AllocsPerRun's integer
			// average cannot round a per-read allocation down to 0.
			run := func() { access(); access() }
			// Warm up until the engine's event-wheel buckets and the DRAM
			// queues have grown to their steady-state capacity (about 4000
			// TiD misses here).
			for k := 0; k < 3000; k++ {
				run()
			}
			completed = 0
			td, isTiD := s.(*TiD)
			var before TiDStats
			if isTiD {
				before = *td.TiDStats()
			}
			if a := testing.AllocsPerRun(100, run); a != 0 {
				t.Fatalf("%v allocs/op, want 0", a)
			}
			want := 202 * tc.burst
			if completed != want {
				t.Fatalf("%d of %d accesses completed", completed, want)
			}
			if isTiD {
				// A stalled access misses again on its retry.
				stalls := td.TiDStats().MSHRStalls - before.MSHRStalls
				if got := td.TiDStats().Misses - before.Misses; got != uint64(want)+stalls {
					t.Fatalf("%d misses in %d accesses with %d MSHR stalls", got, want, stalls)
				}
				if tc.burst > 1 && stalls < 202 {
					t.Fatalf("%d MSHR stalls in 202 bursts of %d", stalls, tc.burst)
				}
				if td.TiDStats().Writebacks == before.Writebacks {
					t.Fatal("no dirty victim written back")
				}
			}
		})
	}
}

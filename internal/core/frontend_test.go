package core

import (
	"testing"

	"nomad/internal/check"
	"nomad/internal/mem"
	"nomad/internal/osmem"
	"nomad/internal/sim"
	"nomad/internal/tlb"
)

// fakeThread records suspension state.
type fakeThread struct {
	blocked int
	events  int
}

func (f *fakeThread) Block() {
	f.blocked++
	f.events++
}
func (f *fakeThread) Unblock() { f.blocked-- }

// fakeBackend accepts commands after a configurable delay and records them.
type fakeBackend struct {
	eng      *sim.Engine
	delay    uint64
	commands []Command
}

func (f *fakeBackend) Send(cmd Command, accepted mem.Done) {
	f.commands = append(f.commands, cmd)
	if accepted == nil {
		return
	}
	if f.delay == 0 {
		accepted()
		return
	}
	f.eng.Schedule(f.delay, accepted)
}

type fakeFlusher struct{ flushed []uint64 }

func (f *fakeFlusher) FlushFrame(cfn uint64) { f.flushed = append(f.flushed, cfn) }

type frontendEnv struct {
	eng     *sim.Engine
	mm      *osmem.Manager
	threads []*fakeThread
	backend *fakeBackend
	flusher *fakeFlusher
	fe      *Frontend
}

func newFrontendEnv(t *testing.T, cfg FrontendConfig, frames uint64, cores int) *frontendEnv {
	t.Helper()
	env := &frontendEnv{
		eng:     sim.New(),
		mm:      osmem.New(cores, frames),
		flusher: &fakeFlusher{},
	}
	env.backend = &fakeBackend{eng: env.eng}
	threads := make([]Thread, cores)
	for i := 0; i < cores; i++ {
		ft := &fakeThread{}
		env.threads = append(env.threads, ft)
		threads[i] = ft
	}
	env.fe = NewFrontend(env.eng, cfg, env.mm, threads, env.flusher, env.backend, nil, nil)
	return env
}

func walk(t *testing.T, env *frontendEnv, core int, vaddr uint64) (tlb.Entry, uint64) {
	t.Helper()
	var got *tlb.Entry
	start := env.eng.Now()
	env.fe.Walk(core, vaddr, func(e tlb.Entry) { got = &e })
	if !env.eng.RunUntil(func() bool { return got != nil }, 1_000_000) {
		t.Fatal("walk never completed")
	}
	return *got, env.eng.Now() - start
}

func TestTagMissHandling(t *testing.T) {
	cfg := DefaultFrontendConfig()
	env := newFrontendEnv(t, cfg, 1024, 1)
	e, lat := walk(t, env, 0, 0x5040)
	if e.Space != mem.SpaceCache {
		t.Fatalf("entry space = %v, want cache", e.Space)
	}
	// Walk latency + 400-cycle handler (uncontended).
	want := cfg.WalkLatency + cfg.TagMgmtLatency
	if lat != want {
		t.Fatalf("tag miss latency = %d, want %d", lat, want)
	}
	if env.threads[0].blocked != 0 || env.threads[0].events != 1 {
		t.Fatalf("thread state: %+v", env.threads[0])
	}
	if len(env.backend.commands) != 1 {
		t.Fatalf("commands = %v", env.backend.commands)
	}
	cmd := env.backend.commands[0]
	if cmd.Type != CmdFill || cmd.Offset != 0x40 {
		t.Fatalf("fill command = %+v, want offset 0x40", cmd)
	}
	pte := env.mm.PTEOf(0, 5)
	if !pte.Cached || pte.Frame != cmd.CFN {
		t.Fatalf("PTE not updated: %+v", pte)
	}
	if env.fe.Stats().TagMisses != 1 {
		t.Fatalf("stats %+v", env.fe.Stats())
	}
}

func TestTagHitNoBlocking(t *testing.T) {
	cfg := DefaultFrontendConfig()
	env := newFrontendEnv(t, cfg, 1024, 1)
	walk(t, env, 0, 0x5000)
	e, lat := walk(t, env, 0, 0x5000) // now cached: tag hit
	if lat != cfg.WalkLatency {
		t.Fatalf("tag hit latency = %d, want walk-only %d", lat, cfg.WalkLatency)
	}
	if e.Space != mem.SpaceCache {
		t.Fatal("tag hit did not yield a cache-space entry")
	}
	if env.threads[0].events != 1 {
		t.Fatal("tag hit suspended the thread")
	}
}

// TestTagHitWalkDoesNotAllocate: at steady state a page-table walk that
// finds its page cached allocates nothing: the walk rides a pooled op
// across the walk latency.
func TestTagHitWalkDoesNotAllocate(t *testing.T) {
	if check.Enabled {
		t.Skip("the invariants build allocates in its assertions")
	}
	env := newFrontendEnv(t, DefaultFrontendConfig(), 1024, 1)
	n := 0
	done := func(tlb.Entry) { n++ }
	pred := func() bool { return n == 2 }
	page := uint64(0)
	// Two overlapping walks per op, so that AllocsPerRun's integer average
	// cannot round a per-walk allocation down to 0.
	run := func() {
		n = 0
		env.fe.Walk(0, page*mem.PageSize, done)
		env.fe.Walk(0, (page+1)*mem.PageSize, done)
		page = (page + 2) % 16
		env.eng.RunUntil(pred, 100_000)
	}
	// The first pass over the 16 pages takes their tag misses; the rest
	// warm the engine's event-wheel buckets.
	for k := 0; k < 1000; k++ {
		run()
	}
	hits := env.fe.Stats().TagHits
	if a := testing.AllocsPerRun(100, run); a != 0 {
		t.Fatalf("%v allocs/op, want 0", a)
	}
	if got := env.fe.Stats().TagHits - hits; got != 2*101 {
		t.Fatalf("%d tag hits in %d walks", got, 2*101)
	}
}

func TestMutexSerializesHandlers(t *testing.T) {
	cfg := DefaultFrontendConfig()
	env := newFrontendEnv(t, cfg, 1024, 2)
	var lat [2]uint64
	done := 0
	for c := 0; c < 2; c++ {
		c := c
		start := env.eng.Now()
		env.fe.Walk(c, uint64(c)*mem.PageSize, func(tlb.Entry) {
			lat[c] = env.eng.Now() - start
			done++
		})
	}
	env.eng.RunUntil(func() bool { return done == 2 }, 1_000_000)
	fast, slow := lat[0], lat[1]
	if fast > slow {
		fast, slow = slow, fast
	}
	if fast != cfg.WalkLatency+cfg.TagMgmtLatency {
		t.Fatalf("first handler latency = %d", fast)
	}
	if slow != cfg.WalkLatency+2*cfg.TagMgmtLatency {
		t.Fatalf("second handler latency = %d, want serialized %d", slow, cfg.WalkLatency+2*cfg.TagMgmtLatency)
	}
	if env.fe.Stats().MutexWaitSum != cfg.TagMgmtLatency {
		t.Fatalf("mutex wait = %d", env.fe.Stats().MutexWaitSum)
	}
}

func TestBackendAcceptanceExtendsHandler(t *testing.T) {
	cfg := DefaultFrontendConfig()
	env := newFrontendEnv(t, cfg, 1024, 1)
	env.backend.delay = 1000 // acceptance slower than the 400-cycle handler
	_, lat := walk(t, env, 0, 0)
	if lat != cfg.WalkLatency+1000 {
		t.Fatalf("latency = %d, want walk+acceptance %d", lat, cfg.WalkLatency+1000)
	}
}

func TestEvictionDaemon(t *testing.T) {
	cfg := DefaultFrontendConfig()
	cfg.EvictionLowWater = 8
	cfg.EvictionBatch = 4
	env := newFrontendEnv(t, cfg, 16, 1)
	// Allocate past the low-water mark; mark everything dirty.
	for i := uint64(0); i < 9; i++ {
		e, _ := walk(t, env, 0, i*mem.PageSize)
		env.mm.MarkDirty(e.Frame)
	}
	env.eng.Run(50_000)
	s := env.fe.Stats()
	if s.DaemonRuns == 0 || s.Evictions == 0 {
		t.Fatalf("daemon never ran: %+v", s)
	}
	if s.DirtyEvictions != s.Evictions {
		t.Fatalf("dirty evictions %d != evictions %d", s.DirtyEvictions, s.Evictions)
	}
	// Writeback commands reached the back-end.
	wbs := 0
	for _, c := range env.backend.commands {
		if c.Type == CmdWriteback {
			wbs++
		}
	}
	if wbs == 0 {
		t.Fatal("no writeback commands sent")
	}
	if len(env.flusher.flushed) == 0 {
		t.Fatal("victims not flushed from SRAM")
	}
	// Evicted PTEs must be restored to their PFNs.
	restored := 0
	for i := uint64(0); i < 9; i++ {
		if !env.mm.PTEOf(0, i).Cached {
			restored++
		}
	}
	if restored == 0 {
		t.Fatal("no PTEs restored after eviction")
	}
}

func TestDaemonSkipsTLBResidentFrames(t *testing.T) {
	cfg := DefaultFrontendConfig()
	cfg.EvictionLowWater = 8
	cfg.EvictionBatch = 16
	env := newFrontendEnv(t, cfg, 16, 1)
	var frames []uint64
	e0, _ := walk(t, env, 0, 0)
	frames = append(frames, e0.Frame)
	// Pin the first frame in the (simulated) TLB before the daemon can
	// possibly run.
	env.fe.TLBInserted(0, tlb.Entry{VPN: 0, Frame: frames[0], Space: mem.SpaceCache})
	for i := uint64(1); i < 9; i++ {
		e, _ := walk(t, env, 0, i*mem.PageSize)
		frames = append(frames, e.Frame)
	}
	env.eng.Run(50_000)
	if env.mm.CPDOf(frames[0]).Valid == false {
		t.Fatal("TLB-resident frame was evicted")
	}
	if env.fe.Stats().TLBSkips == 0 {
		t.Fatal("no TLB-shootdown-avoidance skips recorded")
	}
	env.fe.TLBEvicted(0, tlb.Entry{VPN: 0, Frame: frames[0], Space: mem.SpaceCache})
	if env.mm.CPDOf(frames[0]).TLBDir != 0 {
		t.Fatal("TLB directory bit not cleared")
	}
}

func TestDirectReclaim(t *testing.T) {
	cfg := DefaultFrontendConfig()
	cfg.EvictionLowWater = 1
	cfg.EvictionBatch = 2
	env := newFrontendEnv(t, cfg, 4, 1)
	// Exhaust the cache behind the front-end's back so the next tag miss
	// finds zero free frames before the background daemon can help.
	for i := uint64(100); i < 104; i++ {
		pte := env.mm.PTEOf(0, i)
		cfn := env.mm.AllocateFrame(pte.Frame)
		env.mm.SetCached(pte.Frame, cfn)
	}
	walk(t, env, 0, 0)
	if env.fe.Stats().DirectReclaims == 0 {
		t.Fatal("allocation past capacity without direct reclaim")
	}
}

func TestBlockingModeWaitsForCopy(t *testing.T) {
	cfg := DefaultFrontendConfig()
	cfg.Blocking = true
	eng := sim.New()
	mm := osmem.New(1, 64)
	ft := &fakeThread{}
	copyDelay := uint64(5000)
	copies := 0
	copier := func(src, dst uint64, done mem.Done) {
		copies++
		eng.Schedule(copyDelay, func() {
			if done != nil {
				done()
			}
		})
	}
	fe := NewFrontend(eng, cfg, mm, []Thread{ft}, nil, nil, copier, copier)
	var got *tlb.Entry
	start := eng.Now()
	fe.Walk(0, 0, func(e tlb.Entry) { got = &e })
	eng.RunUntil(func() bool { return got != nil }, 100_000)
	lat := eng.Now() - start
	if lat < copyDelay {
		t.Fatalf("blocking walk returned after %d cycles, before the %d-cycle copy", lat, copyDelay)
	}
	if copies != 1 {
		t.Fatalf("copies = %d", copies)
	}
	if ft.blocked != 0 || ft.events != 1 {
		t.Fatalf("thread: %+v", ft)
	}
	// Blocking mode charges no tag-management latency.
	if fe.Stats().TagMgmtLatencySum != 0 {
		t.Fatalf("blocking mode recorded tag latency %d", fe.Stats().TagMgmtLatencySum)
	}
}

func TestUncacheablePage(t *testing.T) {
	cfg := DefaultFrontendConfig()
	env := newFrontendEnv(t, cfg, 64, 1)
	pte := env.mm.PTEOf(0, 3)
	pte.NonCacheable = true
	e, lat := walk(t, env, 0, 3*mem.PageSize)
	if e.Space != mem.SpacePhysical {
		t.Fatal("NC page translated to cache space")
	}
	if lat != cfg.WalkLatency {
		t.Fatalf("NC walk latency = %d", lat)
	}
	if env.fe.Stats().Uncacheable != 1 {
		t.Fatalf("stats %+v", env.fe.Stats())
	}
}

func TestSharedPageCaching(t *testing.T) {
	// §III-G: caching a shared page updates every PTE via the reverse
	// mapping, so the second process gets a tag hit without a second
	// fill.
	cfg := DefaultFrontendConfig()
	cfg.EvictionLowWater = 4 // keep the daemon quiet in this tiny cache
	env := newFrontendEnv(t, cfg, 64, 2)
	pte0 := env.mm.PTEOf(0, 5)
	env.mm.MapShared(1, 9, pte0.Frame) // core 1 vpn 9 -> same physical page
	e0, _ := walk(t, env, 0, 5*mem.PageSize)
	if e0.Space != mem.SpaceCache {
		t.Fatal("walk did not cache")
	}
	e1, lat := walk(t, env, 1, 9*mem.PageSize)
	if e1.Space != mem.SpaceCache || e1.Frame != e0.Frame {
		t.Fatalf("shared mapping resolved to %+v, want CFN %d", e1, e0.Frame)
	}
	if lat != cfg.WalkLatency {
		t.Fatalf("second process paid a tag miss (%d cycles) on a shared cached page", lat)
	}
	if len(env.backend.commands) != 1 {
		t.Fatalf("shared page filled %d times", len(env.backend.commands))
	}
	// Eviction restores both PTEs.
	env.mm.ReleaseFrame(e0.Frame)
	if env.mm.PTEOf(0, 5).Cached || env.mm.PTEOf(1, 9).Cached {
		t.Fatal("eviction left a stale shared PTE")
	}
}

func TestSelectiveCaching(t *testing.T) {
	cfg := DefaultFrontendConfig()
	cfg.CacheTouchThreshold = 2
	env := newFrontendEnv(t, cfg, 64, 1)
	// First walk: bypassed (physical), no fill.
	e1, lat1 := walk(t, env, 0, 0)
	if e1.Space != mem.SpacePhysical {
		t.Fatalf("first touch cached the page: %+v", e1)
	}
	if lat1 != cfg.WalkLatency {
		t.Fatalf("bypass latency = %d, want walk-only", lat1)
	}
	if len(env.backend.commands) != 0 {
		t.Fatal("bypassed page generated a fill")
	}
	if env.fe.Stats().SelectiveBypasses != 1 {
		t.Fatalf("bypasses = %d", env.fe.Stats().SelectiveBypasses)
	}
	// Second walk: hot enough, cached.
	e2, _ := walk(t, env, 0, 0)
	if e2.Space != mem.SpaceCache {
		t.Fatalf("second touch did not cache: %+v", e2)
	}
	if len(env.backend.commands) != 1 {
		t.Fatalf("fills = %d", len(env.backend.commands))
	}
}

func TestConstructorValidation(t *testing.T) {
	eng := sim.New()
	mm := osmem.New(1, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("non-blocking front-end without backend did not panic")
		}
	}()
	NewFrontend(eng, FrontendConfig{}, mm, nil, nil, nil, nil, nil)
}

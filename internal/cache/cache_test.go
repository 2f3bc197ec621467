package cache

import (
	"testing"
	"testing/quick"

	"nomad/internal/mem"
	"nomad/internal/sim"
)

// fakeLower records accesses and completes them after a fixed delay.
type fakeLower struct {
	eng     *sim.Engine
	delay   uint64
	reads   []uint64
	writes  []uint64
	stalled bool // when set, hold requests until release
	held    []func()
}

func (f *fakeLower) Access(req *mem.Request, done mem.Done) {
	if req.Write {
		f.writes = append(f.writes, req.Addr)
	} else {
		f.reads = append(f.reads, req.Addr)
	}
	fire := func() {
		if done != nil {
			done()
		}
	}
	if f.stalled {
		f.held = append(f.held, fire)
		return
	}
	f.eng.Schedule(f.delay, fire)
}

func (f *fakeLower) release() {
	for _, h := range f.held {
		f.eng.Schedule(f.delay, h)
	}
	f.held = nil
	f.stalled = false
}

func newTestCache(eng *sim.Engine, sets, ways, mshrs int) (*Cache, *fakeLower) {
	lower := &fakeLower{eng: eng, delay: 50}
	c := New(eng, Config{Name: "T", Sets: sets, Ways: ways, Latency: 2, MSHRs: mshrs}, lower)
	return c, lower
}

func read(eng *sim.Engine, c *Cache, addr uint64) *bool {
	done := new(bool)
	req := mem.Request{Addr: addr}
	c.Access(&req, func() { *done = true })
	return done
}

func wait(t *testing.T, eng *sim.Engine, flag *bool) {
	t.Helper()
	if !eng.RunUntil(func() bool { return *flag }, 100000) {
		t.Fatal("access never completed")
	}
}

func TestMissThenHit(t *testing.T) {
	eng := sim.New()
	c, lower := newTestCache(eng, 16, 2, 4)
	d1 := read(eng, c, 0x1000)
	wait(t, eng, d1)
	if len(lower.reads) != 1 {
		t.Fatalf("lower reads = %d, want 1", len(lower.reads))
	}
	start := eng.Now()
	d2 := read(eng, c, 0x1000)
	wait(t, eng, d2)
	if got := eng.Now() - start; got > 5 {
		t.Fatalf("hit latency %d, want <= latency+epsilon", got)
	}
	if len(lower.reads) != 1 {
		t.Fatal("hit went to lower level")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCoalescing(t *testing.T) {
	eng := sim.New()
	c, lower := newTestCache(eng, 16, 2, 4)
	d1 := read(eng, c, 0x2000)
	d2 := read(eng, c, 0x2010) // same 64 B block
	wait(t, eng, d1)
	wait(t, eng, d2)
	if len(lower.reads) != 1 {
		t.Fatalf("coalesced miss fetched %d times", len(lower.reads))
	}
	if c.Stats().Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", c.Stats().Coalesced)
	}
}

// TestCoalesceFilterCollisions: blocks k·256 share one count of the MSHR
// coalesce filter, yet each misses into its own MSHR, and a repeat of one of
// them coalesces, also after a colliding block's fill has lowered the count.
func TestCoalesceFilterCollisions(t *testing.T) {
	eng := sim.New()
	c, lower := newTestCache(eng, 16, 2, 8)
	block := func(k uint64) uint64 { return k * 256 * mem.BlockSize }
	var done []*bool
	done = append(done, read(eng, c, block(0)))
	eng.Run(10)
	done = append(done, read(eng, c, block(1)), read(eng, c, block(2)))
	eng.Run(5)
	if n := c.OutstandingMSHRs(); n != 3 {
		t.Fatalf("%d MSHRs active for three colliding blocks, want 3", n)
	}
	if c.Stats().Coalesced != 0 {
		t.Fatalf("colliding blocks coalesced %d times", c.Stats().Coalesced)
	}
	// Block 0 fills at cycle 52; blocks 1 and 2 are still in flight.
	eng.Run(40)
	if n := c.OutstandingMSHRs(); n != 2 {
		t.Fatalf("%d MSHRs active after block 0's fill, want 2", n)
	}
	done = append(done, read(eng, c, block(1)+8), read(eng, c, block(3)))
	for _, d := range done {
		wait(t, eng, d)
	}
	if len(lower.reads) != 4 {
		t.Fatalf("lower level read %d blocks, want 4", len(lower.reads))
	}
	if c.Stats().Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1 (the repeat of block 256)", c.Stats().Coalesced)
	}
}

func TestWritebackOnEviction(t *testing.T) {
	eng := sim.New()
	c, lower := newTestCache(eng, 1, 2, 4) // one set, 2 ways
	// Dirty block A.
	wreq := mem.Request{Addr: 0, Write: true}
	wd := new(bool)
	c.Access(&wreq, func() { *wd = true })
	wait(t, eng, wd)
	// Fill B and C in the same set: evicts A (dirty -> writeback).
	d2 := read(eng, c, 64)
	wait(t, eng, d2)
	d3 := read(eng, c, 128)
	wait(t, eng, d3)
	if len(lower.writes) != 1 || mem.BlockAligned(lower.writes[0]) != 0 {
		t.Fatalf("expected writeback of block 0, got %v", lower.writes)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestLRUOrder(t *testing.T) {
	eng := sim.New()
	c, lower := newTestCache(eng, 1, 2, 4)
	wait(t, eng, read(eng, c, 0))   // A
	wait(t, eng, read(eng, c, 64))  // B
	wait(t, eng, read(eng, c, 0))   // touch A: B is now LRU
	wait(t, eng, read(eng, c, 128)) // C evicts B
	lower.reads = nil
	wait(t, eng, read(eng, c, 0)) // A should still hit
	if len(lower.reads) != 0 {
		t.Fatal("LRU evicted the recently used block")
	}
	wait(t, eng, read(eng, c, 64)) // B was evicted: miss
	if len(lower.reads) != 1 {
		t.Fatal("expected B to have been evicted")
	}
}

func TestMSHRBackpressure(t *testing.T) {
	eng := sim.New()
	c, lower := newTestCache(eng, 64, 4, 2)
	lower.stalled = true
	flags := make([]*bool, 5)
	for i := range flags {
		flags[i] = read(eng, c, uint64(i)*64)
	}
	eng.Run(100)
	if c.OutstandingMSHRs() != 2 {
		t.Fatalf("outstanding MSHRs = %d, want cap 2", c.OutstandingMSHRs())
	}
	if c.Stats().MSHRStalls != 3 {
		t.Fatalf("MSHR stalls = %d, want 3", c.Stats().MSHRStalls)
	}
	lower.release()
	for _, f := range flags {
		wait(t, eng, f)
	}
}

func TestFlushPage(t *testing.T) {
	eng := sim.New()
	c, lower := newTestCache(eng, 64, 4, 8)
	// Dirty two blocks and clean-read one within page 5.
	base := uint64(5 * mem.PageSize)
	for _, off := range []uint64{0, 64} {
		wr := mem.Request{Addr: base + off, Write: true}
		wd := new(bool)
		c.Access(&wr, func() { *wd = true })
		wait(t, eng, wd)
	}
	wait(t, eng, read(eng, c, base+128))
	lower.writes = nil
	wbs := c.FlushPage(base)
	if wbs != 2 {
		t.Fatalf("FlushPage wrote back %d lines, want 2", wbs)
	}
	if c.Stats().FlushedLines != 3 {
		t.Fatalf("flushed %d lines, want 3", c.Stats().FlushedLines)
	}
	// All three must now miss.
	lower.reads = nil
	wait(t, eng, read(eng, c, base))
	if len(lower.reads) != 1 {
		t.Fatal("flushed line did not miss")
	}
}

func TestWriteAllocatesDirty(t *testing.T) {
	eng := sim.New()
	c, lower := newTestCache(eng, 1, 1, 4)
	wr := mem.Request{Addr: 0, Write: true}
	wd := new(bool)
	c.Access(&wr, func() { *wd = true })
	wait(t, eng, wd)
	// Evict with another block: the write-allocated line must write back.
	wait(t, eng, read(eng, c, 64))
	if len(lower.writes) != 1 {
		t.Fatal("write-allocated line was not dirty on eviction")
	}
}

func TestConfigSize(t *testing.T) {
	cfg := Config{Sets: 64, Ways: 8}
	if cfg.SizeBytes() != 64*8*64 {
		t.Fatalf("SizeBytes = %d", cfg.SizeBytes())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	New(sim.New(), Config{Name: "wide", Sets: 4, Ways: maxWays, MSHRs: maxMSHRs}, nil)
	for _, cfg := range []Config{
		{Name: "bad", Sets: 3, Ways: 1},                      // sets not a power of two
		{Name: "bad", Sets: 4, Ways: maxWays + 1},            // more ways than a recency order holds
		{Name: "bad", Sets: 4, Ways: 1, MSHRs: maxMSHRs + 1}, // more MSHRs than a filter count holds
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d sets × %d ways, %d MSHRs did not panic", cfg.Sets, cfg.Ways, cfg.MSHRs)
				}
			}()
			New(sim.New(), cfg, nil)
		}()
	}
}

// TestMissRateProperty: for any access sequence confined to a region that
// fits entirely in the cache, every block misses at most once (no spurious
// evictions), and all accesses complete.
func TestMissRateProperty(t *testing.T) {
	f := func(seq []uint8) bool {
		if len(seq) == 0 {
			return true
		}
		eng := sim.New()
		c, lower := newTestCache(eng, 64, 4, 8) // 256 blocks >= 256 possible addrs
		complete := 0
		distinct := map[uint8]bool{}
		for _, b := range seq {
			distinct[b] = true
			req := mem.Request{Addr: uint64(b) * 64}
			c.Access(&req, func() { complete++ })
		}
		eng.RunUntil(func() bool { return complete == len(seq) }, 1_000_000)
		// The working set fits, so each distinct block is fetched from
		// the lower level at most once.
		return complete == len(seq) && len(lower.reads) <= len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nomad/internal/check"
	"nomad/internal/mem"
	"nomad/internal/sim"
)

// blockIn builds the block of the given set whose bits above the set index,
// space bit aside, are high.
func blockIn(c *Cache, high, set uint64, space mem.Space) uint64 {
	b := high<<c.setBits() | set
	if space == mem.SpaceCache {
		b |= spaceBlockBit
	}
	return b
}

// checkTag requires block to survive the tag round trip and its twin in the
// other space to get a different tag.
func checkTag(c *Cache, block uint64) error {
	tag := c.tagOf(block)
	if tag == invalidTag {
		return fmt.Errorf("%d sets: block %#x got the empty-way tag", c.cfg.Sets, block)
	}
	if got := c.blockOf(tag, c.setIndex(block)); got != block {
		return fmt.Errorf("%d sets: block %#x -> tag %#x -> block %#x", c.cfg.Sets, block, tag, got)
	}
	if twin := block ^ spaceBlockBit; c.tagOf(twin) == tag {
		return fmt.Errorf("%d sets: blocks %#x and %#x share tag %#x", c.cfg.Sets, block, twin, tag)
	}
	return nil
}

// TestTagRoundTrip: at every power-of-two set count from 1 to 4096,
// blockOf inverts tagOf for random blocks of both spaces, the largest
// blocks a tag holds included, and no two blocks that differ only in their
// space share a tag.
func TestTagRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for sets := 1; sets <= 4096; sets *= 2 {
		c := New(sim.New(), Config{Name: "T", Sets: sets, Ways: 1}, nil)
		for i := 0; i < 2000; i++ {
			high := uint64(rng.Int63n(maxTagHigh))
			if i < 4 {
				high = []uint64{0, 1, maxTagHigh - 2, maxTagHigh - 1}[i]
			}
			set := uint64(rng.Intn(sets))
			for _, space := range []mem.Space{mem.SpacePhysical, mem.SpaceCache} {
				if err := checkTag(c, blockIn(c, high, set, space)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// FuzzTagRoundTrip is TestTagRoundTrip on fuzzed blocks and set counts
// (2^(log%13)): a block whose tag fits must round trip and differ from its
// twin's in the other space; any other block must panic with tagOverflow.
func FuzzTagRoundTrip(f *testing.F) {
	f.Add(uint64(0x123456789), uint8(6))
	f.Add(spaceBlockBit|0xabcdef, uint8(12))
	f.Add(uint64(maxTagHigh-1), uint8(0))
	f.Add(uint64(maxTagHigh)<<3|spaceBlockBit, uint8(3))
	f.Fuzz(func(t *testing.T, block uint64, log uint8) {
		c := New(sim.New(), Config{Name: "F", Sets: 1 << (log % 13), Ways: 1}, nil)
		if (block&^spaceBlockBit)>>c.setBits() < maxTagHigh {
			if err := checkTag(c, block); err != nil {
				t.Fatal(err)
			}
			return
		}
		defer func() {
			if _, ok := recover().(tagOverflow); !ok {
				t.Fatalf("%d sets: block %#x did not panic with tagOverflow", c.cfg.Sets, block)
			}
		}()
		c.tagOf(block)
	})
}

// TestTagOverflowPanics: a block whose bits above the set index need more
// than 31 bits, or all 31 ones, panics naming the level, and the block just
// below that limit does not.
func TestTagOverflowPanics(t *testing.T) {
	c := New(sim.New(), Config{Name: "L9", Sets: 64, Ways: 1}, nil)
	if err := checkTag(c, blockIn(c, maxTagHigh-1, 63, mem.SpaceCache)); err != nil {
		t.Fatal(err)
	}
	for _, high := range []uint64{maxTagHigh, 1 << 31, 1 << 40} {
		block := blockIn(c, high, 5, mem.SpacePhysical)
		func() {
			defer func() {
				e, ok := recover().(tagOverflow)
				if !ok || !strings.Contains(e.Error(), "L9") {
					t.Errorf("block %#x: recovered %v, want a tagOverflow naming L9", block, e)
				}
			}()
			c.tagOf(block)
		}()
	}
}

// wideTagCache is the reference model of a cache's contents with the
// original 64-bit tags, every block bit above the set index: the same set
// records, so only the tags differ from Cache.
type wideTagCache struct {
	sets    []setState
	tags    []uint64
	ways    int
	setBits uint
}

func newWideTagCache(sets, ways int, setBits uint) *wideTagCache {
	w := &wideTagCache{sets: make([]setState, sets), tags: make([]uint64, sets*ways), ways: ways, setBits: setBits}
	for i := range w.sets {
		w.sets[i].perm = identityPerm
	}
	for i := range w.tags {
		w.tags[i] = ^uint64(0)
	}
	return w
}

// access returns whether block hits and, on a miss that evicts a dirty
// line, the line's block.
func (w *wideTagCache) access(block uint64, write bool) (hit bool, wb uint64, wrote bool) {
	set := block & uint64(len(w.sets)-1)
	base := int(set) * w.ways
	tag := block >> w.setBits
	s := &w.sets[set]
	for i, t := range w.tags[base : base+w.ways] {
		if t == tag {
			s.hit(i, write)
			return true, 0, false
		}
	}
	v := s.victim(w.ways)
	if s.dirty&(1<<v) != 0 {
		wb, wrote = w.tags[base+v]<<w.setBits|set, true
	}
	w.tags[base+v] = tag
	s.install(v, write)
	return false, wb, wrote
}

// TestTagsMatchWideTagOracle: over random read/write sequences in both
// spaces, the packed tags hit, miss and write back exactly where the
// 64-bit tags do. The block pool puts twins that differ only in their space
// in the same set, plus blocks at the top of the tags' range.
func TestTagsMatchWideTagOracle(t *testing.T) {
	for _, geo := range [][2]int{{1, 1}, {1, 4}, {4, 2}, {64, 4}} {
		sets, ways := geo[0], geo[1]
		t.Run(fmt.Sprintf("%dx%d", sets, ways), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sets*16 + ways)))
			eng := sim.New()
			c, lower := newTestCache(eng, sets, ways, 4)
			w := newWideTagCache(sets, ways, c.setBits())
			var pool []uint64
			for len(pool) < 3*sets*ways {
				high := uint64(rng.Intn(4 * ways))
				if rng.Intn(4) == 0 {
					high = maxTagHigh - 1 - high
				}
				set := uint64(rng.Intn(sets))
				pool = append(pool, blockIn(c, high, set, mem.SpacePhysical), blockIn(c, high, set, mem.SpaceCache))
			}
			for i := 0; i < 4000; i++ {
				block := pool[rng.Intn(len(pool))]
				write := rng.Intn(3) == 0
				hits, writes := c.Stats().Hits, len(lower.writes)
				done := false
				req := mem.Request{Addr: block << mem.BlockBits, Write: write}
				c.Access(&req, func() { done = true })
				wait(t, eng, &done)
				hit, wb, wrote := w.access(block, write)
				if got := c.Stats().Hits > hits; got != hit {
					t.Fatalf("access %d (block %#x): hit %v, oracle %v", i, block, got, hit)
				}
				var want []uint64
				if wrote {
					want = append(want, wb<<mem.BlockBits)
				}
				if got := lower.writes[writes:]; fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("access %d (block %#x): wrote back %#x, oracle %#x", i, block, got, want)
				}
			}
		})
	}
}

type nopLower struct{}

func (nopLower) Access(*mem.Request, mem.Done) {}

// TestFlushPageDoesNotAllocate: flushing a page of dirty lines writes each
// back through the cache's scratch request, not a new one per line.
func TestFlushPageDoesNotAllocate(t *testing.T) {
	c := New(sim.New(), Config{Name: "T", Sets: 64, Ways: 4, Latency: 2, MSHRs: 8}, nopLower{})
	page := uint64(5 * mem.PageSize)
	wbs := 0
	allocs := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < mem.SubBlocksPerPage; i++ {
			block := mem.BlockNum(page) + i
			set := c.setIndex(block)
			s := &c.sets[set]
			v := s.victim(c.cfg.Ways)
			c.tags[int(set)*c.cfg.Ways+v] = c.tagOf(block)
			s.install(v, true)
		}
		wbs = c.FlushPage(page)
	})
	if wbs != mem.SubBlocksPerPage {
		t.Fatalf("FlushPage wrote back %d lines, want %d", wbs, mem.SubBlocksPerPage)
	}
	if allocs != 0 {
		t.Fatalf("FlushPage of %d dirty lines: %v allocs/op, want 0", wbs, allocs)
	}
}

// delayLower completes each access after a fixed delay through the
// caller's own callback, so it allocates nothing itself.
type delayLower struct {
	eng   *sim.Engine
	delay uint64
}

func (l delayLower) Access(_ *mem.Request, done mem.Done) {
	if done != nil {
		l.eng.Schedule(l.delay, done)
	}
}

// TestAccessDoesNotAllocate: at steady state an access allocates nothing,
// whether it hits, misses with a dirty victim to write back, or finds the
// MSHR file full and is re-admitted through a pooled op when a fill frees
// one.
func TestAccessDoesNotAllocate(t *testing.T) {
	if check.Enabled {
		t.Skip("the invariants build allocates in its assertions")
	}
	eng := sim.New()
	c := New(eng, Config{Name: "T", Sets: 4, Ways: 2, Latency: 2, MSHRs: 2}, delayLower{eng, 50})
	n, want := 0, 0
	done := func() { n++ }
	pred := func() bool { return n == want }
	var req mem.Request
	i := uint64(0)
	run := func() {
		n = 0
		// Four misses at once against two MSHRs: two stall. Cycling
		// through 64 blocks keeps the eight-line cache missing, and every
		// other access is a write, so victims are dirty.
		want = 4
		for k := 0; k < 4; k++ {
			req = mem.Request{Addr: (i % 64) * mem.BlockSize, Write: i%2 == 0}
			i++
			c.Access(&req, done)
		}
		eng.RunUntil(pred, 100_000)
		// The block just filled hits.
		want = 5
		c.Access(&req, done)
		eng.RunUntil(pred, 100_000)
	}
	// Warm up until the engine's event-wheel buckets and the pending
	// queue have grown to their steady-state capacity.
	for k := 0; k < 1000; k++ {
		run()
	}
	before := *c.Stats()
	if a := testing.AllocsPerRun(100, run); a != 0 {
		t.Fatalf("%v allocs/op, want 0", a)
	}
	s := c.Stats()
	if got := s.Misses - before.Misses; got != 4*101 {
		t.Fatalf("%d misses in 101 ops, want %d", got, 4*101)
	}
	if s.Hits-before.Hits != 101 || s.MSHRStalls-before.MSHRStalls != 2*101 || s.Writebacks == before.Writebacks {
		t.Fatalf("hits %d, MSHR stalls %d, writebacks %d in 101 ops; want 101, 202 and some",
			s.Hits-before.Hits, s.MSHRStalls-before.MSHRStalls, s.Writebacks-before.Writebacks)
	}
}

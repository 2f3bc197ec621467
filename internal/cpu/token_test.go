package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/sim"
)

// shufflePort completes each load after a seeded random delay of 20 to 119
// cycles, so loads complete out of issue order, or, one load in six, inside
// Load itself, before the core's Tick has returned. It records every load's issue
// and completion cycles by span ID (span sampling must be set to every
// load, which makes the ID unique per load) and checks the outstanding
// loads, the core's count and its own, at each issue.
type shufflePort struct {
	t        *testing.T
	eng      *sim.Engine
	rng      *rand.Rand
	c        *Core
	issued   map[uint64]uint64 // span ID -> issue cycle
	finished map[uint64]uint64 // span ID -> completion cycle
	pending  int
}

func (p *shufflePort) Load(core int, vaddr uint64, probe *mem.Probe, done func()) {
	id := probe.SpanID
	if id == 0 {
		p.t.Fatal("load issued without a span ID: sampling must cover every load")
	}
	if _, dup := p.issued[id]; dup {
		p.t.Fatalf("span ID %#x issued twice", id)
	}
	p.issued[id] = p.eng.Now()
	p.pending++
	if p.c.inFlight > p.c.cfg.MaxLoads || p.pending > p.c.cfg.MaxLoads {
		p.t.Fatalf("%d loads in flight (%d at the port), MaxLoads %d", p.c.inFlight, p.pending, p.c.cfg.MaxLoads)
	}
	complete := func() {
		if _, again := p.finished[id]; again {
			p.t.Fatalf("load %#x completed twice", id)
		}
		p.finished[id] = p.eng.Now()
		p.pending--
		done()
	}
	if delay := uint64(p.rng.Intn(120)); delay < 20 {
		complete()
	} else {
		p.eng.Schedule(delay, complete)
	}
}

func (p *shufflePort) Store(core int, vaddr uint64) {}

// freeTokens counts the core's idle outstanding-load tokens. It stops one
// past MaxLoads, so a cycle in the free list reads as too many tokens.
func freeTokens(c *Core) int {
	n := 0
	for t := c.freeToks; t != nil && n <= c.cfg.MaxLoads; t = t.next {
		n++
	}
	return n
}

// TestLoadTokens drives the token pool with out-of-order and synchronous
// completions: every load completes exactly once, each load's span covers
// its own issue and completion cycles (a token serving the wrong ring slot
// would emit another load's span), the outstanding loads stay within
// MaxLoads, every token is free once the core drains, and the core's stats
// are the same with fast-forward on and off.
func TestLoadTokens(t *testing.T) {
	for _, cfg := range []Config{
		{Width: 4, ROBSize: 64, MaxLoads: 6},
		{Width: 4, ROBSize: 8, MaxLoads: 16}, // the ROB caps the tokens
	} {
		run := func(ff bool) (*Stats, []metrics.Span) {
			eng := sim.New()
			eng.SetFastForward(ff)
			p := &shufflePort{
				t: t, eng: eng, rng: rand.New(rand.NewSource(7)),
				issued: map[uint64]uint64{}, finished: map[uint64]uint64{},
			}
			c := New(0, cfg, p, stream(1, 0.2))
			p.c = c
			eng.AddTicker(c)
			ring := metrics.NewSpanRing(1 << 15)
			c.SetSpanTracing(ring, 1)
			eng.Run(20_000)
			// Drain: a blocked core issues nothing, and every pending
			// load completes within the port's largest delay.
			c.Block()
			eng.Run(200)
			if p.pending != 0 || c.inFlight != 0 {
				t.Fatalf("%+v: %d loads pending, inFlight %d after draining", cfg, p.pending, c.inFlight)
			}
			if want := min(cfg.MaxLoads, cfg.ROBSize); freeTokens(c) != want {
				t.Fatalf("%+v: %d tokens free after draining, want %d", cfg, freeTokens(c), want)
			}
			spans := ring.Spans()
			if ring.Dropped() != 0 {
				t.Fatalf("%+v: span ring dropped %d spans", cfg, ring.Dropped())
			}
			if uint64(len(p.issued)) != c.Stats().Loads || len(spans) != len(p.issued) {
				t.Fatalf("%+v: %d loads counted, %d issued, %d spans",
					cfg, c.Stats().Loads, len(p.issued), len(spans))
			}
			seen := map[uint64]bool{}
			for _, s := range spans {
				if s.Kind != metrics.SpanLoad || seen[s.ID] {
					t.Fatalf("%+v: span %+v is not a load span or repeats an ID", cfg, s)
				}
				seen[s.ID] = true
				if s.Start != p.issued[s.ID] || s.End != p.finished[s.ID] {
					t.Fatalf("%+v: span %#x covers [%d,%d], its load issued at %d and completed at %d",
						cfg, s.ID, s.Start, s.End, p.issued[s.ID], p.finished[s.ID])
				}
			}
			return c.Stats(), spans
		}
		onStats, onSpans := run(true)
		offStats, offSpans := run(false)
		if !reflect.DeepEqual(onStats, offStats) || !reflect.DeepEqual(onSpans, offSpans) {
			t.Fatalf("%+v: fast-forward changed the run:\n  on:  %+v\n  off: %+v", cfg, onStats, offStats)
		}
		if onStats.Loads < 500 {
			t.Fatalf("%+v: only %d loads issued", cfg, onStats.Loads)
		}
	}
}

// TestNewAllocs: a core builds one completion callback per outstanding-load
// token, not one per ROB slot, so its construction allocations track
// MaxLoads and not ROBSize.
func TestNewAllocs(t *testing.T) {
	cfg := Config{Width: 4, ROBSize: 224, MaxLoads: 6}
	port, wl := &fakePort{eng: sim.New()}, stream(1, 0)
	n := testing.AllocsPerRun(20, func() { New(0, cfg, port, wl) })
	// The core, its load ring and its token array, plus one callback per
	// token.
	if limit := float64(cfg.MaxLoads + 3); n > limit {
		t.Fatalf("New allocates %v times, want at most %v (MaxLoads %d + 3)", n, limit, cfg.MaxLoads)
	}
}

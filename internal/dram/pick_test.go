package dram

import (
	"math/rand"
	"testing"

	"nomad/internal/mem"
	"nomad/internal/sim"
)

// fullScan is the scheduler's selection without pick's early stop: the
// first request of the highest score in the whole queue.
func fullScan(d *Device, c *channel) int {
	best := 0
	bestScore := d.score(c, c.queue[0])
	for i := 1; i < len(c.queue); i++ {
		if s := d.score(c, c.queue[i]); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// pickStats counts the comparisons runPickOps made with a queue of at least
// two requests, with and without a priority request queued.
type pickStats struct {
	prio, plain, maxQueue int
}

// runPickOps drives a small device with ops, two bytes each (an opcode and
// an argument): an access of block arg with or without priority, a
// Promote, an open-row change of one bank (-1, closed, included), or a run
// of up to 15 cycles. After every op it requires pick to return the full
// scan's choice on every non-empty channel queue, and the channel's
// priority count to equal a recount.
func runPickOps(t *testing.T, ops []byte) pickStats {
	eng := sim.New()
	// 2 channels x 4 banks of 4-block rows: block b maps to channel b&1,
	// bank b>>3&3, row b>>5, so the 256 blocks an argument names share
	// eight rows per bank and row hits are common.
	d := New(eng, Config{
		Name: "pick", Channels: 2, Banks: 4, RowBytes: 4 * mem.BlockSize,
		Timing:             Timing{TRCD: 3, TRP: 3, TCL: 3, TBL: 2},
		InflightPerChannel: 2,
	})
	var st pickStats
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		addr := uint64(arg) * mem.BlockSize
		switch op % 4 {
		case 0:
			d.Access(addr, op&8 != 0, mem.KindDemand, op&16 != 0, nil)
		case 1:
			d.Promote(addr)
		case 2:
			d.chans[arg&1].banks[arg>>1&3].openRow = int64(op>>2%9) - 1
		case 3:
			eng.Run(uint64(arg % 16))
		}
		for ci := range d.chans {
			c := &d.chans[ci]
			prio := 0
			for _, r := range c.queue {
				if r.priority {
					prio++
				}
			}
			if c.prio != prio {
				t.Fatalf("op %d: channel %d counts %d priority requests, %d queued", i/2, ci, c.prio, prio)
			}
			if len(c.queue) == 0 {
				continue
			}
			if got, want := d.pick(c), fullScan(d, c); got != want {
				t.Fatalf("op %d: channel %d picks %d of %d queued, the full scan %d", i/2, ci, got, len(c.queue), want)
			}
			st.maxQueue = max(st.maxQueue, len(c.queue))
			if len(c.queue) > 1 {
				if prio > 0 {
					st.prio++
				} else {
					st.plain++
				}
			}
		}
	}
	return st
}

// TestPickMatchesFullScan: over random queues, banks, rows, open rows and
// priorities, pick's early stop chooses what the full scan chooses.
func TestPickMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var total pickStats
	for n := 0; n < 200; n++ {
		ops := make([]byte, 600)
		rng.Read(ops)
		// Mostly accesses, so queues build up.
		for i := 0; i < len(ops); i += 2 {
			if rng.Intn(3) > 0 {
				ops[i] &^= 3
			}
		}
		st := runPickOps(t, ops)
		total.prio += st.prio
		total.plain += st.plain
		total.maxQueue = max(total.maxQueue, st.maxQueue)
	}
	if total.prio < 1000 || total.plain < 1000 || total.maxQueue < 16 {
		t.Fatalf("weak coverage: %+v", total)
	}
}

// FuzzPickMatchesFullScan is TestPickMatchesFullScan's property driven by
// fuzz bytes.
func FuzzPickMatchesFullScan(f *testing.F) {
	f.Add([]byte{0, 1, 16, 9, 0, 33, 2, 1, 3, 4})
	f.Add([]byte{16, 0, 0, 0, 1, 0, 0, 64, 30, 8, 3, 15})
	f.Fuzz(func(t *testing.T, ops []byte) { runPickOps(t, ops) })
}

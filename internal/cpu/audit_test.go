//go:build invariants

package cpu

import (
	"strings"
	"testing"

	"nomad/internal/mem"
	"nomad/internal/sim"
)

// TestFastForwardAuditCatchesUnwatchedCause: in the invariants build, a
// head-cause change that does not wake the sleeping core (here, one made
// after the watch was dropped) fails the Step it happened in.
func TestFastForwardAuditCatchesUnwatchedCause(t *testing.T) {
	eng := sim.New()
	c, _ := newCore(eng, Config{Width: 4, ROBSize: 64, MaxLoads: 4}, stream(0, 0), 100)
	if !eng.RunUntil(func() bool { return c.asleep && !c.sleepOS }, 1000) {
		t.Fatal("the core never slept on its head load")
	}
	h := &c.loads[c.loadHead].probe
	h.Watch(nil)
	eng.Schedule(0, func() { h.SetCause((h.Cause() + 1) % mem.NumStallCauses) })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "but the head load waits on") {
			t.Fatalf("unwatched cause change not caught: recovered %q", msg)
		}
	}()
	eng.Run(1)
}

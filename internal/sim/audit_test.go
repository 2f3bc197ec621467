//go:build invariants

package sim

import (
	"strings"
	"testing"

	"nomad/internal/check"
)

// auditedTicker is a sleepTicker that audits its sleep: it may only be
// asleep with nothing queued.
type auditedTicker struct{ sleepTicker }

func (a *auditedTicker) AuditSleep(now uint64) {
	check.Assert(a.asleep && a.queued == 0, "test ticker asleep at %d with %d queued", now, a.queued)
}

// TestFastForwardAuditCatchesMissedWake: in the invariants build, work
// handed to a sleeping ticker without waking it fails the Step it happened
// in, while the same work handed through a wake passes.
func TestFastForwardAuditCatchesMissedWake(t *testing.T) {
	e := New()
	a := &auditedTicker{}
	e.AddTicker(a)
	e.Schedule(5, a.give)
	e.Run(10)
	if len(a.done) != 1 || a.done[0] != 6 {
		t.Fatalf("woken work ran at %v, want [6]", a.done)
	}

	e.Schedule(5, func() { a.queued++ }) // no wake
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "test ticker asleep at 15 with 1 queued") {
			t.Fatalf("missed wake not caught at cycle 15: recovered %v", r)
		}
	}()
	e.Run(10)
}

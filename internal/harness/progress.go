package harness

import (
	"fmt"
	"io"
	"sync"
	"time"

	"nomad/internal/system"
)

// progressMinPeriod throttles ProgressPrinter output: interval ticks arrive
// every ~100k simulated cycles (often thousands per wall second), but a
// human-facing stderr line is useful at most a few times per second.
const progressMinPeriod = 500 * time.Millisecond

// ProgressPrinter returns a Machine.SetProgress callback that renders
// one-line progress reports ("label: roi 42.0% cycle=1.2M eta=3s") to w,
// throttled to one line per half second of wall time per phase, plus one
// final line when a phase completes. The ETA extrapolates the current
// phase's wall-clock rate. label tags the line (run key) and may be empty.
//
// The returned closure serializes its own writes; distinct printers writing
// to the same io.Writer rely on the writer's atomicity (stderr line writes).
func ProgressPrinter(w io.Writer, label string) func(system.Progress) {
	var (
		mu         sync.Mutex
		phase      string
		phaseStart time.Time
		lastPrint  time.Time
		lastFrac   float64
	)
	prefix := ""
	if label != "" {
		prefix = label + ": "
	}
	return func(p system.Progress) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if p.Phase != phase {
			phase = p.Phase
			phaseStart = now
			lastPrint = time.Time{}
			lastFrac = 0
		}
		frac := p.Fraction()
		done := frac >= 1 && lastFrac < 1
		if !done && !lastPrint.IsZero() && now.Sub(lastPrint) < progressMinPeriod {
			return
		}
		lastPrint = now
		lastFrac = frac
		eta := "?"
		if elapsed := now.Sub(phaseStart).Seconds(); frac > 0 && elapsed > 0 {
			rem := elapsed * (1 - frac) / frac
			eta = (time.Duration(rem*float64(time.Second)) / time.Second * time.Second).String()
		}
		fmt.Fprintf(w, "%s%s %5.1f%% cycle=%s eta=%s\n",
			prefix, p.Phase, 100*frac, fmtCycles(p.Cycle), eta)
	}
}

// fmtCycles renders a cycle count compactly (1.2M, 340k).
func fmtCycles(c uint64) string {
	switch {
	case c >= 1_000_000_000:
		return fmt.Sprintf("%.2fG", float64(c)/1e9)
	case c >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(c)/1e6)
	case c >= 10_000:
		return fmt.Sprintf("%.0fk", float64(c)/1e3)
	default:
		return fmt.Sprintf("%d", c)
	}
}

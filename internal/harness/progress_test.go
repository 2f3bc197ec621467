package harness

import (
	"strings"
	"testing"

	"nomad/internal/system"
)

// TestProgressPrinterFinalTick: the 100% line must print even when it lands
// inside the throttle window right after another line.
func TestProgressPrinterFinalTick(t *testing.T) {
	var buf strings.Builder
	p := ProgressPrinter(&buf, "run")
	p(system.Progress{Phase: "roi", Cycle: 100, Done: 10, Target: 100})
	p(system.Progress{Phase: "roi", Cycle: 150, Done: 50, Target: 100}) // throttled
	p(system.Progress{Phase: "roi", Cycle: 200, Done: 100, Target: 100})
	out := buf.String()
	if !strings.Contains(out, "100.0%") {
		t.Errorf("final tick did not print:\n%s", out)
	}
	if strings.Contains(out, "50.0%") {
		t.Errorf("throttled tick printed:\n%s", out)
	}
	// A repeated 100% tick inside the window stays throttled.
	lines := strings.Count(out, "\n")
	p(system.Progress{Phase: "roi", Cycle: 210, Done: 100, Target: 100})
	if got := strings.Count(buf.String(), "\n"); got != lines {
		t.Errorf("duplicate 100%% line printed (%d -> %d lines)", lines, got)
	}
}

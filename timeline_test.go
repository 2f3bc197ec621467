package nomad

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func timelineFastConfig(s Scheme) Config {
	cfg := fastConfig(s)
	cfg.Telemetry.Timeline = true
	cfg.Telemetry.Interval = 50_000
	return cfg
}

func TestPublicTimelineAccessor(t *testing.T) {
	w, _ := WorkloadByAbbr("libq")
	res, err := Run(timelineFastConfig(SchemeNOMAD), w)
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline()
	if tl == nil {
		t.Fatal("Timeline() nil despite Config.Telemetry.Timeline")
	}
	if tl != res.Metrics().Timeline {
		t.Fatal("Timeline() disagrees with Snapshot.Timeline")
	}
	if tl.Interval != 50_000 || tl.Windows() == 0 {
		t.Fatalf("interval=%d windows=%d", tl.Interval, tl.Windows())
	}
	names := tl.MetricNames()
	if len(names) == 0 || len(names) != len(tl.Metrics) {
		t.Fatalf("MetricNames = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("MetricNames unsorted: %v", names)
		}
	}
	if col := tl.Metric("sim.ipc"); len(col) != tl.Windows() {
		t.Fatalf("sim.ipc column length %d != %d windows", len(col), tl.Windows())
	}
	if tl.Metric("no.such.metric") != nil {
		t.Fatal("unknown metric returned a column")
	}

	// Off by default.
	plain, err := Run(fastConfig(SchemeNOMAD), w)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Timeline() != nil || plain.Host() != nil {
		t.Fatal("timeline/host present without opting in")
	}
}

func TestPublicTimelineByteIdentical(t *testing.T) {
	w, _ := WorkloadByAbbr("cact")
	cfg := timelineFastConfig(SchemeNOMAD)
	capture := func() []byte {
		res, err := Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res.Timeline())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := capture(), capture()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed timeline JSON differs (%d vs %d bytes)", len(a), len(b))
	}
}

func TestPublicSelfProfile(t *testing.T) {
	w, _ := WorkloadByAbbr("tc")
	cfg := fastConfig(SchemeNOMAD)
	cfg.Telemetry.SelfProfile = true
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Host()
	if h == nil {
		t.Fatal("Host() nil despite Config.Telemetry.SelfProfile")
	}
	if h.SimCyclesPerSec <= 0 || h.WallSeconds <= 0 || h.EventsExecuted == 0 {
		t.Fatalf("degenerate host profile: %+v", h)
	}
	// Host data must stay out of the deterministic snapshot.
	data, err := json.Marshal(res.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "wall_seconds") {
		t.Fatal("host profile leaked into the metrics snapshot")
	}
}

func TestTimelineExperiment(t *testing.T) {
	res, err := RunExperimentResult(context.Background(), "timeline",
		ExperimentOptions{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) == 0 || res.Sections[0].Table == nil {
		t.Fatal("timeline experiment produced no table")
	}
	tab := res.Sections[0].Table
	if len(tab.Rows) == 0 {
		t.Fatal("timeline table empty")
	}
	if got, want := len(tab.Header), 8; got != want {
		t.Fatalf("header has %d columns, want %d: %v", got, want, tab.Header)
	}
	for _, key := range []string{"libq/TDC", "libq/NOMAD"} {
		run, ok := res.Runs[key]
		if !ok {
			t.Fatalf("run %q missing (have %v)", key, len(res.Runs))
		}
		if run.Timeline() == nil {
			t.Fatalf("run %q has no timeline", key)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Window end") {
		t.Fatalf("text rendering missing timeline table:\n%s", buf.String())
	}
}

func TestExperimentTimelineOptionPropagates(t *testing.T) {
	// ExperimentOptions.Telemetry.Interval must reach every underlying run
	// (public options → harness options → system config).
	res, err := RunExperimentResult(context.Background(), "timeline",
		ExperimentOptions{Fast: true, Telemetry: Telemetry{Interval: 50_000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) == 0 {
		t.Fatal("no runs")
	}
	for key, run := range res.Runs {
		tl := run.Timeline()
		if tl == nil {
			t.Fatalf("run %q missing timeline", key)
		}
		if tl.Interval != 50_000 {
			t.Fatalf("run %q interval = %d, want the 50k override", key, tl.Interval)
		}
	}
}

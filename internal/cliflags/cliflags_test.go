package cliflags

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"

	"nomad/internal/harness"
	"nomad/internal/system"
)

// parse registers the shared flags on a fresh FlagSet and parses args.
func parse(t *testing.T, args ...string) *Common {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return c
}

func TestDefaults(t *testing.T) {
	c := parse(t)
	if c.Timeline || c.Interval != 0 || c.TimelineMetrics != "" || c.Trace != "" {
		t.Errorf("timeline defaults wrong: %+v", c)
	}
	if c.Profile || c.NoFF || c.Pprof != "" || c.HTTP != "" {
		t.Errorf("host defaults wrong: %+v", c)
	}
	if c.Format != "text" || c.LogFormat != "text" {
		t.Errorf("format defaults wrong: format=%q log-format=%q", c.Format, c.LogFormat)
	}
	if err := c.Check("text"); err != nil {
		t.Errorf("defaults fail Check: %v", err)
	}
}

func TestNoFFFlag(t *testing.T) {
	c := parse(t, "-no-ff")
	var cfg system.Config
	c.ApplySystem(&cfg)
	if cfg.FastForward {
		t.Error("-no-ff did not disable fast-forward in system.Config")
	}
	var o harness.Options
	c.ApplyOptions(&o)
	if !o.NoFastForward {
		t.Error("-no-ff did not set harness NoFastForward")
	}
	c = parse(t)
	cfg = system.Config{}
	c.ApplySystem(&cfg)
	if !cfg.FastForward {
		t.Error("fast-forward not on by default")
	}
}

func TestHTTPFlag(t *testing.T) {
	for _, addr := range []string{"", ":6060", "localhost:6060", "127.0.0.1:0"} {
		c := parse(t, "-http", addr)
		if err := c.Check("text"); err != nil {
			t.Errorf("-http %q rejected: %v", addr, err)
		}
	}
	for _, addr := range []string{"6060", "localhost", "http://x:1"} {
		c := parse(t, "-http", addr)
		if err := c.Check("text"); err == nil || !strings.Contains(err.Error(), "-http") {
			t.Errorf("-http %q not rejected: %v", addr, err)
		}
	}
}

func TestLogFormatFlag(t *testing.T) {
	for _, f := range []string{"text", "json"} {
		c := parse(t, "-log-format", f)
		if err := c.Check("text"); err != nil {
			t.Errorf("-log-format %q rejected: %v", f, err)
		}
	}
	c := parse(t, "-log-format", "yaml")
	if err := c.Check("text"); err == nil || !strings.Contains(err.Error(), "-log-format") {
		t.Errorf("bad log format not rejected: %v", err)
	}

	var buf bytes.Buffer
	parse(t, "-log-format", "json").Logger(&buf).Info("hello", "k", "v")
	if !strings.HasPrefix(buf.String(), "{") || !strings.Contains(buf.String(), `"k":"v"`) {
		t.Errorf("json logger output wrong: %q", buf.String())
	}
	buf.Reset()
	parse(t).Logger(&buf).Info("hello", "k", "v")
	if strings.HasPrefix(buf.String(), "{") || !strings.Contains(buf.String(), "k=v") {
		t.Errorf("text logger output wrong: %q", buf.String())
	}
}

func TestFormatValidation(t *testing.T) {
	c := parse(t, "-format", "csv")
	if err := c.Check("text", "json"); err == nil || !strings.Contains(err.Error(), "csv") {
		t.Errorf("unsupported format not rejected: %v", err)
	}
	if err := c.Check("text", "json", "csv"); err != nil {
		t.Errorf("supported format rejected: %v", err)
	}
}

func TestTraceEnablesCapture(t *testing.T) {
	c := parse(t, "-trace", "out.json")
	var cfg system.Config
	c.ApplySystem(&cfg)
	if cfg.TraceDepth != TraceEventDepth || cfg.SpanDepth != TraceSpanDepth {
		t.Errorf("-trace did not set capture depths: %+v", cfg)
	}
}

func TestMetricsSplit(t *testing.T) {
	if m := parse(t).Metrics(); m != nil {
		t.Errorf("unset -timeline-metrics = %v, want nil", m)
	}
	m := parse(t, "-timeline-metrics", "core.,hbm.gbs.").Metrics()
	if len(m) != 2 || m[0] != "core." || m[1] != "hbm.gbs." {
		t.Errorf("Metrics() = %v", m)
	}
}

func TestStartObsOffByDefault(t *testing.T) {
	var buf bytes.Buffer
	c := parse(t)
	if tr := c.StartObs(c.Logger(&buf)); tr != nil {
		t.Error("StartObs returned a tracker with -http unset")
	}
	if buf.Len() != 0 {
		t.Errorf("StartObs logged with -http unset: %q", buf.String())
	}
}

func TestStartObsListens(t *testing.T) {
	var buf bytes.Buffer
	c := parse(t, "-http", "127.0.0.1:0")
	tr := c.StartObs(c.Logger(&buf))
	if tr == nil {
		t.Fatalf("StartObs returned nil tracker: %s", buf.String())
	}
	if !strings.Contains(buf.String(), "listening") {
		t.Errorf("no listen log line: %q", buf.String())
	}
}

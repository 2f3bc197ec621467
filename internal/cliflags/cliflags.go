// Package cliflags centralises the command-line flags the nomad CLIs share,
// so cmd/nomadsim and cmd/experiments parse -timeline/-trace/-profile/
// -format/-http (and friends) with one canonical name, default, and help
// string each, instead of keeping hand-rolled copies that drift apart.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"

	"nomad/internal/obs"
	"nomad/internal/system"
)

// Common holds the parsed shared flags. Each CLI reads the subset that is
// meaningful to it; parsing is identical everywhere.
type Common struct {
	// tel receives -timeline, -interval, -digests and -profile; Telemetry
	// adds the -timeline-metrics and -trace selections.
	tel system.Telemetry
	// metrics is the raw -timeline-metrics list.
	metrics string
	// Trace is the Perfetto output path (-trace); a non-empty value also
	// enables event/span capture at system.TraceCapture's depths.
	Trace string
	// Format selects the output rendering (-format); each CLI validates
	// it against its supported set with CheckFormat.
	Format string
	// HTTP is the introspection-server listen address (-http, "" = off):
	// /metrics, /runs, /runs/{key}/timeline, /runs/{key}/digests,
	// /debug/pprof.
	HTTP string
	// LogFormat selects the slog handler for host-side structured output
	// (-log-format): "text" or "json".
	LogFormat string
}

// Register installs the shared flags on fs and returns the struct their
// values land in. Call before fs.Parse.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.BoolVar(&c.tel.Timeline, "timeline", false, "capture interval time-series telemetry (per-window IPC, hit rates, bandwidth)")
	fs.Uint64Var(&c.tel.Interval, "interval", 0, "timeline/progress window in cycles (0 = 100000)")
	fs.StringVar(&c.metrics, "timeline-metrics", "", "comma-separated name prefixes restricting timeline columns (e.g. core.,hbm.gbs.)")
	fs.BoolVar(&c.tel.Digests, "digests", false, "capture interval digest chains (per-window chained registry digests; compare runs with nomaddiff)")
	fs.StringVar(&c.Trace, "trace", "", "write a Perfetto trace to this file (open at ui.perfetto.dev)")
	fs.BoolVar(&c.tel.SelfProfile, "profile", false, "self-profile the simulator (wall-clock cycles/sec, heap, GC pauses)")
	fs.StringVar(&c.Format, "format", "text", "output format")
	fs.StringVar(&c.HTTP, "http", "", "serve live introspection on this address (e.g. :6060): /metrics, /runs, /runs/{key}/timeline, /runs/{key}/digests, /debug/pprof")
	fs.StringVar(&c.LogFormat, "log-format", "text", "structured log format for warnings and progress: text or json")
	return c
}

// Check validates the flag values that have a closed domain: -http,
// -log-format, and -format against the formats this CLI supports. It
// returns a user-facing error (the caller prints it and exits 2).
func (c *Common) Check(formats ...string) error {
	if c.HTTP != "" {
		if _, _, err := net.SplitHostPort(c.HTTP); err != nil {
			return fmt.Errorf("-http %q: want host:port or :port", c.HTTP)
		}
	}
	if c.LogFormat != "text" && c.LogFormat != "json" {
		return fmt.Errorf("-log-format %q: use text or json", c.LogFormat)
	}
	for _, f := range formats {
		if c.Format == f {
			return nil
		}
	}
	return fmt.Errorf("unknown format %q; use %s", c.Format, strings.Join(formats, ", "))
}

// Telemetry returns the run telemetry the flags select; -trace turns on
// event and span capture at system.TraceCapture's depths.
func (c *Common) Telemetry() system.Telemetry {
	t := c.tel
	if c.metrics != "" {
		t.TimelineMetrics = strings.Split(c.metrics, ",")
	}
	if c.Trace != "" {
		t.TraceDepth, t.SpanDepth = system.TraceCapture()
	}
	return t
}

// Logger builds the host-side structured logger writing to w in the
// -log-format encoding. Call after Check.
func (c *Common) Logger(w io.Writer) *slog.Logger {
	if c.LogFormat == "json" {
		return slog.New(slog.NewJSONHandler(w, nil))
	}
	return slog.New(slog.NewTextHandler(w, nil))
}

// StartObs starts the live introspection server when -http was given and
// returns the run tracker feeding it; with -http unset it returns nil, which
// every obs consumer treats as "observation off". Serve errors and the bound
// address go through log.
func (c *Common) StartObs(log *slog.Logger) *obs.RunTracker {
	if c.HTTP == "" {
		return nil
	}
	tracker := obs.NewRunTracker()
	srv := obs.NewServer(tracker)
	addr, err := srv.Start(c.HTTP, func(err error) {
		log.Error("introspection server failed", "err", err)
	})
	if err != nil {
		log.Error("introspection server failed to listen", "addr", c.HTTP, "err", err)
		return nil
	}
	log.Info("introspection server listening", "addr", addr.String())
	return tracker
}

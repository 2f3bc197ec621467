// Package cliflags centralises the command-line flags the nomad CLIs share,
// so cmd/nomadsim, cmd/experiments, and cmd/bench parse
// -timeline/-trace/-profile/-no-ff/-format/-engine (and friends) with one
// canonical name, default, and help string each, instead of keeping three
// hand-rolled copies that drift apart.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"strings"

	"nomad/internal/harness"
	"nomad/internal/obs"
	"nomad/internal/sim"
	"nomad/internal/system"
)

// Trace capture depths used when -trace is given: large enough that a short
// ROI fits without wrapping, small enough to keep memory per run modest.
const (
	TraceEventDepth = 1 << 16
	TraceSpanDepth  = 1 << 15
)

// Common holds the parsed shared flags. Each CLI applies the subset that is
// meaningful to it through the Apply helpers; parsing is identical
// everywhere.
type Common struct {
	// Timeline, Interval, TimelineMetrics configure interval time-series
	// capture (-timeline, -interval, -timeline-metrics).
	Timeline        bool
	Interval        uint64
	TimelineMetrics string
	// Digests enables interval digest-chain capture (-digests).
	Digests bool
	// Trace is the Perfetto output path (-trace); a non-empty value also
	// enables event/span capture at the standard depths.
	Trace string
	// Profile enables host-side self-profiling (-profile).
	Profile bool
	// NoFF disables activity-driven ticking and clock jumps (-no-ff).
	NoFF bool
	// Engine names the event-queue implementation (-engine): "" or
	// "wheel" for the timing wheel, "heap" for the binary-heap oracle.
	Engine string
	// Format selects the output rendering (-format); each CLI validates
	// it against its supported set with CheckFormat.
	Format string
	// Pprof is the net/http/pprof listen address (-pprof, "" = off).
	Pprof string
	// HTTP is the introspection-server listen address (-http, "" = off):
	// /metrics, /runs, /runs/{key}/timeline, /debug/pprof.
	HTTP string
	// LogFormat selects the slog handler for host-side structured output
	// (-log-format): "text" or "json".
	LogFormat string
}

// Register installs the shared flags on fs and returns the struct their
// values land in. Call before fs.Parse.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.BoolVar(&c.Timeline, "timeline", false, "capture interval time-series telemetry (per-window IPC, hit rates, bandwidth)")
	fs.Uint64Var(&c.Interval, "interval", 0, "timeline/progress window in cycles (0 = 100000)")
	fs.StringVar(&c.TimelineMetrics, "timeline-metrics", "", "comma-separated name prefixes restricting timeline columns (e.g. core.,hbm.gbs.)")
	fs.BoolVar(&c.Digests, "digests", false, "capture interval digest chains (per-window chained registry digests; compare runs with nomaddiff)")
	fs.StringVar(&c.Trace, "trace", "", "write a Perfetto trace to this file (open at ui.perfetto.dev)")
	fs.BoolVar(&c.Profile, "profile", false, "self-profile the simulator (wall-clock cycles/sec, heap, GC pauses)")
	fs.BoolVar(&c.NoFF, "no-ff", false, "tick every component every cycle instead of letting idle ones sleep and the clock jump (results are byte-identical either way)")
	fs.StringVar(&c.Engine, "engine", "", "event-queue implementation: wheel (default) or heap (the differential-testing oracle)")
	fs.StringVar(&c.Format, "format", "text", "output format")
	fs.StringVar(&c.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. :6060) while running")
	fs.StringVar(&c.HTTP, "http", "", "serve live introspection on this address (e.g. :6060): /metrics, /runs, /runs/{key}/timeline, /debug/pprof")
	fs.StringVar(&c.LogFormat, "log-format", "text", "structured log format for warnings and progress: text or json")
	return c
}

// Check validates the flag values that have a closed domain: -engine, and
// -format against the formats this CLI supports. It returns a user-facing
// error (the caller prints it and exits 2).
func (c *Common) Check(formats ...string) error {
	if _, err := sim.NewScheduler(sim.Kind(c.Engine)); err != nil {
		return fmt.Errorf("-engine %q: use %q or %q", c.Engine, sim.KindWheel, sim.KindHeap)
	}
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

// Kind returns the -engine selection as a sim.Kind.
func (c *Common) Kind() sim.Kind { return sim.Kind(c.Engine) }

// Metrics returns the -timeline-metrics prefixes, nil when unset.
func (c *Common) Metrics() []string {
	if c.TimelineMetrics == "" {
		return nil
	}
	return strings.Split(c.TimelineMetrics, ",")
}

// ApplySystem writes the shared knobs into a system.Config (cmd/nomadsim).
func (c *Common) ApplySystem(cfg *system.Config) {
	if c.Trace != "" {
		cfg.TraceDepth = TraceEventDepth
		cfg.SpanDepth = TraceSpanDepth
	}
	cfg.Timeline = c.Timeline
	cfg.Interval = c.Interval
	cfg.TimelineMetrics = c.Metrics()
	cfg.Digests = c.Digests
	cfg.SelfProfile = c.Profile
	cfg.FastForward = !c.NoFF
	cfg.Engine = c.Kind()
}

// ApplyOptions writes the shared knobs into harness.Options
// (cmd/experiments).
func (c *Common) ApplyOptions(o *harness.Options) {
	if c.Trace != "" {
		o.TraceDepth = TraceEventDepth
		o.SpanDepth = TraceSpanDepth
	}
	o.Timeline = c.Timeline
	o.Interval = c.Interval
	o.TimelineMetrics = c.Metrics()
	o.Digests = c.Digests
	o.SelfProfile = c.Profile
	o.NoFastForward = c.NoFF
	o.Engine = c.Kind()
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

// StartPprof starts the net/http/pprof server when -pprof was given; serve
// errors go to w. It returns immediately.
func (c *Common) StartPprof(w io.Writer) {
	if c.Pprof == "" {
		return
	}
	addr := c.Pprof
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(w, "pprof: %v\n", err)
		}
	}()
}

// Command nomaddiff structurally compares two simulation runs and localizes
// where they first diverge.
//
// File mode diffs two saved result files (nomadsim -format json output, a
// bare system.Result, or a bare metrics snapshot — the shape is detected):
//
//	nomaddiff a.json b.json
//
// Run mode executes two run specs (scheme/workload[/seed]) fresh, with
// digest chains and timelines forced on, and diffs the results; -bisect
// additionally replays each run's prefix up to the first divergent interval
// with full event tracing and writes per-run Perfetto traces:
//
//	nomaddiff -run TDC/cact/1 TDC/cact/2
//	nomaddiff -bisect -fast -out /tmp/div TDC/cact/1 TDC/cact/2
//
// Exit status: 0 when the runs are identical, 1 when they diverge, 2 on
// usage or input errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"nomad/internal/diag"
	"nomad/internal/harness"
	"nomad/internal/metrics"
	"nomad/internal/sim"
	"nomad/internal/system"
	"nomad/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		runMode = flag.Bool("run", false, "arguments are run specs (scheme/workload[/seed]) to execute fresh, not files")
		bisect  = flag.Bool("bisect", false, "replay the divergent prefix with event tracing and write Perfetto traces (implies -run)")
		fast    = flag.Bool("fast", false, "with -run: shrink warmup/ROI for quick runs")
		noFF    = flag.Bool("no-ff", false, "with -run: tick every component every cycle instead of letting idle ones sleep and the clock jump (results are byte-identical either way)")
		engine  = flag.String("engine", "", "with -run: event-queue implementation (wheel or heap)")
		top     = flag.Int("top", 10, "show at most this many metric deltas per table")
		out     = flag.String("out", ".", "with -bisect: directory for the per-run Perfetto traces")
		format  = flag.String("format", "text", "output format: text or json")
	)
	flag.Parse()
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "unknown format %q; use text, json\n", *format)
		return 2
	}
	if _, err := sim.NewScheduler(sim.Kind(*engine)); err != nil {
		fmt.Fprintf(os.Stderr, "-engine %q: use %q or %q\n", *engine, sim.KindWheel, sim.KindHeap)
		return 2
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: nomaddiff [flags] A.json B.json  |  nomaddiff -run [flags] SPEC_A SPEC_B")
		flag.PrintDefaults()
		return 2
	}
	argA, argB := flag.Arg(0), flag.Arg(1)

	// Bisection replays prefixes with tracing, which only works on fresh
	// runs — saved snapshot files carry no replayable spec.
	if !*runMode && !*bisect {
		return diffFiles(argA, argB, *format, *top)
	}

	specA, err := parseSpec(argA, *fast, *noFF, *engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	specB, err := parseSpec(argB, *fast, *noFF, *engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *bisect {
		return runBisect(specA, specB, *format, *top, *out)
	}
	return runDiff(specA, specB, *format, *top)
}

// parseSpec builds a diag.RunSpec from "scheme/workload[/seed]".
func parseSpec(s string, fast, noFF bool, engine string) (diag.RunSpec, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 2 && len(parts) != 3 {
		return diag.RunSpec{}, fmt.Errorf("run spec %q: want scheme/workload[/seed]", s)
	}
	sp, ok := workload.ByAbbr(parts[1])
	if !ok {
		return diag.RunSpec{}, fmt.Errorf("run spec %q: unknown workload %q", s, parts[1])
	}
	cfg := system.DefaultConfig()
	cfg.Scheme = system.SchemeName(parts[0])
	known := false
	for _, sc := range system.AllSchemes() {
		if cfg.Scheme == sc {
			known = true
			break
		}
	}
	if !known {
		return diag.RunSpec{}, fmt.Errorf("run spec %q: unknown scheme %q", s, parts[0])
	}
	if len(parts) == 3 {
		seed, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return diag.RunSpec{}, fmt.Errorf("run spec %q: bad seed %q", s, parts[2])
		}
		cfg.Seed = seed
	}
	if fast {
		cfg.WarmupInstructions = 300_000
		cfg.ROIInstructions = 400_000
	}
	cfg.FastForward = !noFF
	cfg.Engine = sim.Kind(engine)
	return diag.RunSpec{Key: s, Cfg: cfg, Spec: sp}, nil
}

// executePair runs the two specs through the harness pool and returns their
// snapshots in order. Keys are prefixed so identical specs (same run diffed
// against itself) cannot collide in the results map.
func executePair(a, b diag.RunSpec) ([2]*metrics.Snapshot, error) {
	var out [2]*metrics.Snapshot
	runs := []harness.Run{
		{Key: "A/" + a.Key, Cfg: a.Cfg, Spec: a.Spec},
		{Key: "B/" + b.Key, Cfg: b.Cfg, Spec: b.Spec},
	}
	results, err := harness.Execute(context.Background(), harness.Options{}, runs)
	if err != nil {
		return out, err
	}
	ra, rb := results["A/"+a.Key], results["B/"+b.Key]
	if ra == nil || rb == nil {
		return out, fmt.Errorf("nomaddiff: run pair did not complete")
	}
	out[0], out[1] = ra.Metrics, rb.Metrics
	return out, nil
}

// diffFiles loads two snapshots from disk and diffs them.
func diffFiles(pathA, pathB, format string, top int) int {
	a, err := loadSnapshot(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := loadSnapshot(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	d := diag.DiffSnapshots(a, b)
	if err := render(d, format, top); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if d.Identical() {
		return 0
	}
	return 1
}

// runDiff executes the two specs with digests and timelines forced on and
// diffs the resulting snapshots.
func runDiff(a, b diag.RunSpec, format string, top int) int {
	a.Cfg.Digests, a.Cfg.Timeline = true, true
	b.Cfg.Digests, b.Cfg.Timeline = true, true
	res, err := executePair(a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	d := diag.DiffSnapshots(res[0], res[1])
	if err := render(d, format, top); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if d.Identical() {
		return 0
	}
	return 1
}

// runBisect runs the full two-pass bisection and writes the prefix traces.
func runBisect(a, b diag.RunSpec, format string, top int, outDir string) int {
	rep, err := diag.Bisect(context.Background(), a, b, diag.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else if err := rep.WriteText(os.Stdout, top); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, tr := range []struct {
		name  string
		bytes []byte
	}{{"divergence-a.json", rep.TraceA}, {"divergence-b.json", rep.TraceB}} {
		if tr.bytes == nil {
			continue
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		path := filepath.Join(outDir, tr.name)
		if err := os.WriteFile(path, tr.bytes, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "wrote Perfetto trace %s — open at https://ui.perfetto.dev\n", path)
	}
	if rep.Identical {
		return 0
	}
	return 1
}

func render(d *diag.SnapshotDiff, format string, top int) error {
	if format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(d)
	}
	return d.WriteText(os.Stdout, top)
}

// resultFile matches the three snapshot-bearing JSON shapes nomad tools
// emit; exactly one probe field is set per shape.
type resultFile struct {
	// nomadsim -format json: {"result": {..., "Metrics": {...}}, "manifest": ...}
	Result *struct {
		Metrics *metrics.Snapshot `json:"Metrics"`
	} `json:"result"`
	// bare system.Result: {..., "Metrics": {...}}
	Metrics *metrics.Snapshot `json:"Metrics"`
	// bare metrics.Snapshot: {..., "counters": {...}}
	Counters map[string]uint64 `json:"counters"`
}

// loadSnapshot reads a snapshot from any of the supported file shapes.
func loadSnapshot(path string) (*metrics.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case f.Result != nil && f.Result.Metrics != nil:
		return f.Result.Metrics, nil
	case f.Metrics != nil:
		return f.Metrics, nil
	case f.Counters != nil:
		var s metrics.Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("%s: no metrics snapshot found (want nomadsim -format json output, a system.Result, or a bare snapshot)", path)
}

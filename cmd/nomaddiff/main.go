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
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"nomad/internal/diag"
	"nomad/internal/harness"
	"nomad/internal/metrics"
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
		top     = flag.Int("top", 10, "show at most this many metric deltas per table")
		out     = flag.String("out", ".", "with -bisect: directory for the per-run Perfetto traces")
		format  = flag.String("format", "text", "output format: text or json")
	)
	flag.Parse()
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "unknown format %q; use text, json\n", *format)
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

	specA, err := parseSpec(argA, *fast)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	specB, err := parseSpec(argB, *fast)
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
func parseSpec(s string, fast bool) (diag.RunSpec, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 2 && len(parts) != 3 {
		return diag.RunSpec{}, fmt.Errorf("run spec %q: want scheme/workload[/seed]", s)
	}
	sp, ok := workload.ByAbbr(parts[1])
	if !ok {
		return diag.RunSpec{}, fmt.Errorf("run spec %q: unknown workload %q", s, parts[1])
	}
	scheme, err := system.ParseScheme(parts[0])
	if err != nil {
		return diag.RunSpec{}, fmt.Errorf("run spec %q: %w", s, err)
	}
	cfg := harness.Options{Fast: fast}.BaseConfig()
	cfg.Scheme = scheme
	if len(parts) == 3 {
		seed, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return diag.RunSpec{}, fmt.Errorf("run spec %q: bad seed %q", s, parts[2])
		}
		cfg.Seed = seed
	}
	return diag.RunSpec{Key: s, Cfg: cfg, Spec: sp}, nil
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
	ra, rb, err := diag.ExecPair(context.Background(), a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	d := diag.DiffSnapshots(ra.Metrics, rb.Metrics)
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
	rep, err := diag.Bisect(context.Background(), a, b)
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
	s, err := parseSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// parseSnapshot decodes a snapshot from any of the supported file shapes
// and rejects one whose captures are ragged, which the diff would index
// past their ends.
func parseSnapshot(data []byte) (*metrics.Snapshot, error) {
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	var s *metrics.Snapshot
	switch {
	case f.Result != nil && f.Result.Metrics != nil:
		s = f.Result.Metrics
	case f.Metrics != nil:
		s = f.Metrics
	case f.Counters != nil:
		s = new(metrics.Snapshot)
		if err := json.Unmarshal(data, s); err != nil {
			return nil, err
		}
	default:
		return nil, errors.New("no metrics snapshot found (want nomadsim -format json output, a system.Result, or a bare snapshot)")
	}
	if d := s.Digests; d != nil && len(d.Cycles) != len(d.Digests) {
		return nil, fmt.Errorf("digest chain has %d window cycles for %d digests", len(d.Cycles), len(d.Digests))
	}
	if tl := s.Timeline; tl != nil {
		for _, name := range tl.MetricNames() {
			if n := len(tl.Metrics[name]); n != len(tl.Cycles) {
				return nil, fmt.Errorf("timeline column %q has %d values for %d windows", name, n, len(tl.Cycles))
			}
		}
	}
	return s, nil
}

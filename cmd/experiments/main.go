// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run table1            # one artifact
//	experiments -run fig9,fig11        # several
//	experiments -run all               # the whole evaluation
//	experiments -list                  # show what is available
//	experiments -run fig9 -format json # machine-readable output
//
// -format selects the rendering: "text" (default) prints each table/figure
// as in the paper; "json" streams one JSON document of the structured report
// — sections plus every underlying run's full metrics snapshot — per
// completed experiment, so partial output survives cancellation, and is
// byte-identical across same-seed invocations; "csv" flattens every table
// row, prefixed by experiment ID and section index. Progress and timing go
// to stderr in the machine-readable formats so stdout stays parseable.
//
// -trace FILE additionally captures per-access latency spans and machine
// events in every run and writes one Perfetto/Chrome trace-event JSON file
// covering all completed runs; open it at https://ui.perfetto.dev. The file
// is written (with whatever completed) even when the batch is interrupted.
//
// -fast trades precision for speed (short warmup/ROI), useful for smoke
// checks. Interrupting (Ctrl-C) cancels in-flight simulations within 8192
// simulated cycles.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"nomad/internal/cliflags"
	"nomad/internal/harness"
	"nomad/internal/metrics"
	"nomad/internal/system"
)

func main() {
	// Simulations allocate short-lived events at a high rate; a lazier GC
	// trades memory for a large speedup on small machines.
	debug.SetGCPercent(600)
	var (
		runIDs   = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		list     = flag.Bool("list", false, "list experiments and exit")
		fast     = flag.Bool("fast", false, "short warmup/ROI (quick, less precise)")
		parallel = flag.Int("p", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "print each run's summary line (to stderr)")
		progress = flag.Bool("progress", false, "print per-run progress and ETA to stderr at each interval tick")
	)
	cf := cliflags.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if err := cf.Check("text", "json", "csv"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := cf.Logger(os.Stderr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := harness.Options{
		Fast: *fast, Parallelism: *parallel, Verbose: *verbose, Logger: logger,
	}
	cf.ApplyOptions(&opts)
	if *progress {
		opts.Progress = func(key string) func(system.Progress) {
			return system.ProgressPrinter(os.Stderr, key)
		}
	}
	opts.Tracker = cf.StartObs(logger)
	var exps []harness.Experiment
	if *runIDs == "all" {
		exps = harness.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := harness.Get(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	var traceRuns []metrics.PerfettoRun
	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		// Flush whatever trace data completed runs produced before exiting,
		// so an interrupted batch still yields an inspectable trace.
		flushTrace(cf.Trace, traceRuns)
		os.Exit(1)
	}
	for _, e := range exps {
		start := time.Now()
		if cf.Format == "text" {
			fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		}
		rep, err := e.Run(ctx, opts)
		if err != nil {
			fail("%s failed: %v", e.ID, err)
		}
		for _, warn := range rep.Warnings {
			logger.Warn("data-quality warning", "experiment", e.ID, "detail", warn)
		}
		traceRuns = append(traceRuns, collectTraces(e.ID, rep)...)
		elapsed := time.Since(start).Round(time.Millisecond)
		switch cf.Format {
		case "text":
			if err := rep.WriteText(os.Stdout); err != nil {
				fail("%s: %v", e.ID, err)
			}
			fmt.Printf("(%s completed in %v)\n\n", e.ID, elapsed)
		case "csv":
			if err := writeCSV(os.Stdout, rep); err != nil {
				fail("%s: %v", e.ID, err)
			}
			logger.Info("experiment complete", "experiment", e.ID, "elapsed", elapsed.String())
		case "json":
			// Streamed: one document per completed experiment, so output
			// survives cancellation mid-batch.
			if err := enc.Encode(rep); err != nil {
				fail("%s: encode: %v", e.ID, err)
			}
			logger.Info("experiment complete", "experiment", e.ID, "elapsed", elapsed.String())
		}
	}
	if err := flushTrace(cf.Trace, traceRuns); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
}

// collectTraces gathers the per-run trace dumps of one experiment in
// deterministic (sorted key) order.
func collectTraces(expID string, rep *harness.Report) []metrics.PerfettoRun {
	keys := make([]string, 0, len(rep.Runs))
	for k, res := range rep.Runs {
		if res.Trace != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	runs := make([]metrics.PerfettoRun, len(keys))
	for i, k := range keys {
		runs[i] = metrics.PerfettoRun{Name: expID + "/" + k, Dump: rep.Runs[k].Trace}
	}
	return runs
}

// flushTrace writes the Perfetto file when -trace was given and any run
// produced a dump. A nil error is returned when there is nothing to do.
func flushTrace(path string, runs []metrics.PerfettoRun) error {
	if path == "" || len(runs) == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metrics.WritePerfetto(f, runs...); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote Perfetto trace (%d runs) to %s — open at https://ui.perfetto.dev\n", len(runs), path)
	return nil
}

// writeCSV flattens every table of the report: each table emits its header
// and rows, all prefixed with the experiment ID and section index so several
// tables (and experiments) concatenate into one parseable stream. A trailing
// "manifest" section lists each run's content address and wall-clock
// duration.
func writeCSV(w io.Writer, rep *harness.Report) error {
	cw := csv.NewWriter(w)
	for si, sec := range rep.Sections {
		if sec.Table == nil {
			continue
		}
		if err := cw.Write(append([]string{"experiment", "section"}, sec.Table.Header...)); err != nil {
			return err
		}
		for _, row := range sec.Table.Rows {
			if err := cw.Write(append([]string{rep.ID, strconv.Itoa(si)}, row...)); err != nil {
				return err
			}
		}
	}
	if len(rep.Manifests) > 0 {
		if err := cw.Write([]string{"experiment", "section", "run", "manifest", "run_seconds"}); err != nil {
			return err
		}
		keys := make([]string, 0, len(rep.Manifests))
		for k := range rep.Manifests {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			addr := ""
			if m := rep.Manifests[k]; m != nil {
				addr = m.Address
			}
			secs := strconv.FormatFloat(rep.RunSeconds[k], 'f', 3, 64)
			if err := cw.Write([]string{rep.ID, "manifest", k, addr, secs}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time and prints every metric by name and unit, then,
// as its last line, one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"ns_per_inst": {"value": 171.9, "unit": "ns"}, ...}}
//
// Run it through run.sh, which builds it from the checkout's source:
//
//	bash perfbench/run.sh --workload nomad-cact --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics: host ns per simulated
// instruction and machine set-up time, both calibrated against a reference
// kernel, and live heap. With --trace 1
// it measures the per-layer metrics instead: each layer's share of a CPU
// profile of the measured region, host ns per unit of that layer's work,
// exact work counts, and micro-benchmarks of each layer's exported
// functions. --out appends the run's record (every sample, schema
// nomad-bench/2) to a file; --compare checks the run against the latest
// record for the same workload and mode in such a file. README.md lists
// the workloads, every metric, the calibration rule and how to read the
// layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one reported metric. bound is the share of the baseline's
// median by which an end-to-end metric may get worse before a change counts
// as a regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

var endToEnd = []metricDef{
	{"ns_per_inst", "ns", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// perLayer lists the --trace 1 metrics in report order.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{name: l + ".self_pct", unit: "%", better: "lower"})
	}
	for _, w := range layerWork {
		defs = append(defs, metricDef{name: w.layer + ".ns_per_op", unit: "ns", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "sim.events", unit: "count", better: "lower"},
		metricDef{name: "sim.skip_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "cpu.os_blocked_frac", unit: "ratio", better: "lower"},
		metricDef{name: "cache.llc_misses", unit: "count", better: "lower"},
		metricDef{name: "tlb.walks", unit: "count", better: "lower"},
		metricDef{name: "core.frontend.tag_misses", unit: "count", better: "lower"},
		metricDef{name: "core.backend.fills", unit: "count", better: "lower"},
		metricDef{name: "dram.requests", unit: "count", better: "lower"},
		metricDef{name: "runtime.alloc_mb", unit: "MB", better: "lower"},
		metricDef{name: "runtime.gc_count", unit: "count", better: "lower"},
		metricDef{name: "host.wall_ns_per_inst", unit: "ns", better: "lower"},
		metricDef{name: "host.cal_s", unit: "s", better: "lower"},
		metricDef{name: "trace_overhead_pct", unit: "%", better: "lower"},
	)
	for _, m := range micros {
		defs = append(defs, metricDef{name: m.name, unit: "ns", better: "lower"})
	}
	return defs
}()

// outcome is what one invocation measured.
type outcome struct {
	attempted, failed int
	samples           map[string][]float64
	// values holds the reported value of metrics whose value is not the
	// median of their samples.
	values map[string]float64
	digest string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see README.md)")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", defaultSeconds, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	out := fs.String("out", "", "append this run's record to `file`")
	compare := fs.String("compare", "", "compare with the latest matching record in `file`; exit 1 on a regression")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	cal := newCalibrator()
	budget := time.Duration(*seconds) * time.Second
	var o *outcome
	var err error
	defs := endToEnd
	if *trace == 0 {
		o, err = measureEndToEnd(w, *seed, budget, cal, stderr)
	} else {
		defs = perLayer
		o, err = measureLayers(w, *seed, budget, cal)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	rec := newRecord(w.name, *seed, *trace == 1, o, defs)
	fmt.Fprintf(stdout, "workload %s seed %d: %d runs, %d failed, digest %s\n", w.name, *seed, o.attempted, o.failed, o.digest)
	for _, d := range defs {
		s := rec.Metrics[d.name]
		fmt.Fprintf(stdout, "  %-28s %14.6g %-5s  median %.6g  q1 %.6g  q3 %.6g  n %d\n",
			d.name, s.Value, d.unit, s.Median, s.Q1, s.Q3, s.N)
	}
	status := 0
	if o.failed > 0 {
		status = 1
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			status = 1
		}
	}
	if *compare != "" {
		regressed, err := compareWith(*compare, rec, defs, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			status = 1
		} else if regressed {
			status = 1
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{rec.Metrics[d.name].Value, d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return status
}

// defaultSeconds is the measuring time BENCHMARK.json gives each run:
// 8–28 reps of a workload on a 2-CPU host.
const defaultSeconds = 30

// minReps is the fewest timed runs an end-to-end measurement takes, so a
// digest majority exists even when the time budget is spent early.
const minReps = 3

// setupsPerRep is how many machines each rep builds and times; the last
// one runs. A build takes about a millisecond, so spreading many of them
// over the whole measurement lets the fastest land in a quiet moment.
const setupsPerRep = 5

// measureEndToEnd times reps of the workload until the budget is spent,
// bracketing each with the reference kernel. A rep is not started when
// the previous one's duration would carry it past the budget. A run that
// returns an error or fails a check counts as failed.
//
// The samples are each rep's time scaled by the kernel around it. The
// reported timings are the fastest rep (and build) scaled by the fastest
// kernel: interference from the rest of the host only ever adds time, so
// the fastest observations are the least disturbed ones, and on a shared
// host they vary far less from run to run than the medians do.
func measureEndToEnd(w workloadDef, seed uint64, budget time.Duration, cal *calibrator, log io.Writer) (*outcome, error) {
	o := &outcome{samples: map[string][]float64{}}
	start := time.Now()
	var digests []string
	var okRuns []bool
	kernels := []float64{cal.kernel()}
	var rawNs, rawSetups []float64
	var last time.Duration
	for rep := 0; rep < minReps || time.Since(start)+last <= budget; rep++ {
		repStart := time.Now()
		var res runResult
		var runErr error
		var setups []float64
		for i := 0; i < setupsPerRep; i++ {
			m, setupS, err := w.build(seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, setupS)
			if i == setupsPerRep-1 {
				res, runErr = runOnce(m, false)
			}
		}
		k, k2 := kernels[len(kernels)-1], cal.kernel()
		kernels = append(kernels, k2)
		rawSetups = append(rawSetups, setups...)
		for _, s := range setups {
			o.samples["setup_s"] = append(o.samples["setup_s"], calibrated(s, (k+k2)/2))
		}
		o.attempted++
		if runErr != nil {
			fmt.Fprintf(log, "perfbench: rep %d: %v\n", rep, runErr)
			digests, okRuns = append(digests, ""), append(okRuns, false)
		} else {
			if res.checkFailed != nil {
				fmt.Fprintf(log, "perfbench: rep %d: %v\n", rep, res.checkFailed)
			}
			digests, okRuns = append(digests, res.digest), append(okRuns, res.checkFailed == nil)
			raw := res.wallS * 1e9 / float64(res.insts)
			rawNs = append(rawNs, raw)
			o.samples["ns_per_inst"] = append(o.samples["ns_per_inst"], calibrated(raw, (k+k2)/2))
			o.samples["live_heap_mb"] = append(o.samples["live_heap_mb"], res.liveHeapMB)
		}
		last = time.Since(repStart)
	}
	o.failed, o.digest = tally(digests, okRuns)
	o.values = map[string]float64{"setup_s": calibrated(minOf(rawSetups), minOf(kernels))}
	if len(rawNs) > 0 {
		o.values["ns_per_inst"] = calibrated(minOf(rawNs), minOf(kernels))
	}
	return o, nil
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = math.Min(m, x)
	}
	return m
}

// tally counts the failed runs: those that failed a check of their own and
// those whose digest disagrees with the others. It returns the agreed
// digest too.
func tally(digests []string, ok []bool) (int, string) {
	bad := checkDigests(digests)
	failed := 0
	agreed := ""
	for i := range digests {
		if !ok[i] || bad[i] {
			failed++
		} else {
			agreed = digests[i]
		}
	}
	return failed, agreed
}

// layerWork names each layer's unit of work, counted from one run's
// measured region, for the layer's ns_per_op: its share of the profile
// times the region's wall time, divided by the count.
var layerWork = []struct {
	layer string
	count func(r runResult) float64
}{
	{"sim", func(r runResult) float64 { return float64(r.roiEvents) }},
	{"cpu", func(r runResult) float64 { return float64(r.res.Cycles) * float64(r.cores) }},
	{"cache", func(r runResult) float64 {
		return sumCounters(r, "cache.l1.", ".hits", ".misses") + sumCounters(r, "cache.l2.", ".hits", ".misses") +
			counter(r, "cache.llc.hits") + counter(r, "cache.llc.misses")
	}},
	{"tlb", func(r runResult) float64 {
		return sumCounters(r, "tlb.", ".l1_hits", ".l2_hits", ".walks", ".coalesced")
	}},
	{"core.frontend", func(r runResult) float64 { return counter(r, "frontend.tag_misses") }},
	{"core.backend", func(r runResult) float64 {
		return counter(r, "backend.data_hits") + counter(r, "backend.data_misses") + counter(r, "backend.buffer_hits")
	}},
	{"schemes", func(r runResult) float64 { return counter(r, "scheme.reads") + counter(r, "scheme.writes") }},
	{"dram", dramRequests},
}

func counter(r runResult, name string) float64 { return float64(r.res.Metrics.Counter(name)) }

// sumCounters adds prefix+<core>+suffix over every core, for each suffix.
func sumCounters(r runResult, prefix string, suffixes ...string) float64 {
	var t float64
	for c := 0; c < r.cores; c++ {
		for _, s := range suffixes {
			t += counter(r, fmt.Sprintf("%s%d%s", prefix, c, s))
		}
	}
	return t
}

func dramRequests(r runResult) float64 {
	return counter(r, "hbm.reads") + counter(r, "hbm.writes") + counter(r, "ddr.reads") + counter(r, "ddr.writes")
}

// measureLayers alternates untraced and traced runs until two thirds of
// the budget are spent, then runs rounds of micro-benchmarks for the rest.
// The profiler samples at 100 Hz, so the traced runs get most of the time.
// Layer shares pool the samples of every traced run; exact counts come from
// the first traced run, allocation from the first untraced one. A run that
// returns an error ends the measurement: the layer table needs every run.
func measureLayers(w workloadDef, seed uint64, budget time.Duration, cal *calibrator) (*outcome, error) {
	o := &outcome{samples: map[string][]float64{}}
	start := time.Now()
	var untraced, traced []runResult
	var digests []string
	var okRuns []bool
	var calS []float64
	for len(traced) == 0 || time.Since(start) < budget*2/3 {
		m, _, err := w.build(seed)
		if err != nil {
			return nil, err
		}
		calS = append(calS, cal.kernel())
		tracing := len(untraced) > len(traced)
		r, err := runOnce(m, tracing)
		o.attempted++
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", o.attempted-1, err)
		}
		digests, okRuns = append(digests, r.digest), append(okRuns, r.checkFailed == nil)
		if tracing {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	o.failed, o.digest = tally(digests, okRuns)
	first := traced[0]

	shares := map[string]int64{}
	var total int64
	var roiWall float64
	for _, r := range traced {
		byLayer, n, err := foldProfile(r.profile)
		if err != nil {
			return nil, err
		}
		for l, c := range byLayer {
			shares[l] += c
		}
		total += n
		roiWall += r.roiWallS
	}
	if total == 0 {
		return nil, fmt.Errorf("traced runs recorded no profile samples")
	}
	set := func(name string, v float64) { o.samples[name] = []float64{v} }
	for _, l := range layers {
		set(l+".self_pct", 100*float64(shares[l])/float64(total))
	}
	// The traced runs simulate identical work (their digests agree), so
	// the pooled wall time divides by one run's count times the runs.
	nTraced := float64(len(traced))
	for _, lw := range layerWork {
		ns := 0.0
		if n := lw.count(first); n > 0 {
			ns = float64(shares[lw.layer]) / float64(total) * roiWall * 1e9 / (n * nTraced)
		}
		set(lw.layer+".ns_per_op", ns)
	}
	set("sim.events", float64(first.roiEvents))
	set("sim.skip_ratio", float64(first.roiSkipped)/float64(first.res.Cycles))
	set("cpu.os_blocked_frac", first.res.OSStallRatio)
	set("cache.llc_misses", counter(first, "cache.llc.misses"))
	set("tlb.walks", sumCounters(first, "tlb.", ".walks"))
	set("core.frontend.tag_misses", counter(first, "frontend.tag_misses"))
	set("core.backend.fills", counter(first, "backend.fills"))
	set("dram.requests", dramRequests(first))
	set("runtime.alloc_mb", untraced[0].allocMB)
	set("runtime.gc_count", float64(untraced[0].gcCount))
	// Host times compare the fastest run of each kind, the least disturbed
	// by the rest of the host (see measureEndToEnd).
	var nsPerInst, untracedROI, tracedROI []float64
	for _, r := range untraced {
		nsPerInst = append(nsPerInst, r.wallS*1e9/float64(r.insts))
		untracedROI = append(untracedROI, r.roiWallS)
	}
	for _, r := range traced {
		tracedROI = append(tracedROI, r.roiWallS)
	}
	set("host.wall_ns_per_inst", minOf(nsPerInst))
	set("host.cal_s", summarize("s", calS).Median)
	set("trace_overhead_pct", 100*(minOf(tracedROI)/minOf(untracedROI)-1))

	micro, err := runMicros(seed, start.Add(budget), 5, cal)
	if err != nil {
		return nil, err
	}
	for name, v := range micro {
		o.samples[name] = v
	}
	return o, nil
}

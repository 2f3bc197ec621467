// Command nomadsim runs one simulation: a memory scheme on a Table I
// workload surrogate, printing the full measurement set.
//
// Usage:
//
//	nomadsim -scheme NOMAD -workload cact
//	nomadsim -scheme TiD -workload pr -cores 4 -pcshrs 8 -roi 2000000
//	nomadsim -scheme NOMAD -workload sssp -trace out.json   # Perfetto trace
//	nomadsim -list    # show workloads
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"

	"nomad/internal/cliflags"
	"nomad/internal/harness"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/obs"
	"nomad/internal/schemes"
	"nomad/internal/system"
	"nomad/internal/workload"
)

func main() {
	debug.SetGCPercent(600)
	var (
		scheme   = flag.String("scheme", "NOMAD", "Baseline | TiD | TDC | NOMAD | Ideal")
		wl       = flag.String("workload", "cact", "Table I workload abbreviation")
		cores    = flag.Int("cores", 0, "override core count")
		pcshrs   = flag.Int("pcshrs", 0, "override PCSHR count (NOMAD)")
		buffers  = flag.Int("buffers", 0, "override page copy buffer count (NOMAD)")
		distrib  = flag.Bool("distributed", false, "distributed back-ends (NOMAD)")
		warmup   = flag.Uint64("warmup", 0, "override warmup instructions per core")
		roi      = flag.Uint64("roi", 0, "override ROI instructions per core")
		seed     = flag.Uint64("seed", 0, "override workload seed")
		touch    = flag.Uint64("touch", 0, "selective caching: cache on Nth walk (OS-managed schemes)")
		progress = flag.Bool("progress", false, "print simulated-cycle progress and ETA to stderr at each interval tick")
		list     = flag.Bool("list", false, "list workloads and exit")
	)
	cf := cliflags.Register(flag.CommandLine)
	flag.Parse()
	if err := cf.Check("text", "json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := cf.Logger(os.Stderr)

	if *list {
		fmt.Printf("%-6s %-12s %-7s %-9s %s\n", "abbr", "name", "class", "suite", "footprint")
		for _, sp := range workload.Specs() {
			fmt.Printf("%-6s %-12s %-7s %-9s %d MB\n", sp.Abbr, sp.Name, sp.Class, sp.Suite,
				sp.FootprintBytes()/(1024*1024))
		}
		return
	}

	sp, ok := workload.ByAbbr(*wl)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (use -list)\n", *wl)
		os.Exit(2)
	}
	schemeName, err := system.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := harness.Options{Parallelism: 1, Telemetry: cf.Telemetry(), Tracker: cf.StartObs(logger)}
	if *progress {
		opts.Progress = func(key string) func(system.Progress) {
			return harness.ProgressPrinter(os.Stderr, key)
		}
	}
	cfg := opts.BaseConfig()
	cfg.Scheme = schemeName
	if *cores > 0 {
		cfg.Cores = *cores
	}
	if *pcshrs > 0 {
		cfg.Backend.PCSHRs = *pcshrs
	}
	if *buffers > 0 {
		cfg.Backend.CopyBuffers = *buffers
	}
	cfg.Backend.Distributed = *distrib
	if *warmup > 0 {
		cfg.WarmupInstructions = *warmup
	}
	if *roi > 0 {
		cfg.ROIInstructions = *roi
	}
	if *seed > 0 {
		cfg.Seed = *seed
	}
	cfg.Frontend.CacheTouchThreshold = *touch

	// The key is also the run's name on the -http tracker's /runs.
	key := *scheme + "/" + sp.Abbr
	results, err := harness.Execute(context.Background(), opts, []harness.Run{{Key: key, Cfg: cfg, Spec: sp}})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	r, man := results[key].Result, results[key].Manifest

	for _, warn := range harness.DropWarnings(results) {
		logger.Warn("data-quality warning", "detail", warn)
	}

	if cf.Trace != "" && r.Trace != nil {
		f, err := os.Create(cf.Trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		run := metrics.PerfettoRun{Name: key, Dump: r.Trace}
		if err := metrics.WritePerfetto(f, run); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote Perfetto trace to %s — open at https://ui.perfetto.dev\n", cf.Trace)
	}

	if cf.Format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		// The deterministic result plus the host-side manifest, as sibling
		// fields: "result" stays byte-identical across same-seed runs.
		doc := struct {
			Result   *system.Result `json:"result"`
			Manifest *obs.Manifest  `json:"manifest"`
		}{r, man}
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("manifest            %s\n", man.Address)
	fmt.Printf("scheme              %s\n", r.Scheme)
	fmt.Printf("workload            %s (%s, %s)\n", sp.Name, sp.Abbr, sp.Class)
	fmt.Printf("cores               %d\n", r.Cores)
	fmt.Printf("ROI cycles          %d (%.3f ms)\n", r.Cycles, r.Seconds*1e3)
	fmt.Printf("instructions        %d\n", r.Instructions)
	fmt.Printf("IPC (system)        %.3f\n", r.IPC)
	fmt.Printf("OS stall ratio      %.2f%%\n", 100*r.OSStallRatio)
	fmt.Printf("mem stall ratio     %.2f%%\n", 100*r.MemStallRatio)
	if total := r.CPIStack.Total(); total > 0 {
		st := r.CPIStack
		pct := func(v uint64) float64 { return 100 * float64(v) / float64(total) }
		fmt.Printf("cpi stack           compute %.1f%% tag_miss %.1f%% frontend %.1f%%\n",
			pct(st.Compute), pct(st.TagMiss), pct(st.Frontend))
		for c := mem.StallCause(0); c < mem.NumStallCauses; c++ {
			if st.Mem[c] == 0 {
				continue
			}
			fmt.Printf("  mem %-12s    %.1f%%\n", c, pct(st.Mem[c]))
		}
	}
	fmt.Printf("avg DC access time  %.1f cycles\n", r.AvgDCAccessTime)
	fmt.Printf("LLC misses          %d (%.1f per us)\n", r.LLCMisses, r.LLCMPMS)
	fmt.Printf("RMHB                %.2f GB/s\n", r.RMHBGBs)
	fmt.Printf("tag misses          %d (avg latency %.0f, max %d cycles)\n",
		r.TagMisses, r.AvgTagMgmtLatency, r.MaxTagMgmtLatency)
	fmt.Printf("evictions           %d (%d dirty)\n", r.Evictions, r.DirtyEvictions)
	fmt.Printf("data hits/misses    %d / %d (buffer hit rate %.1f%%)\n",
		r.DataHits, r.DataMisses, 100*r.BufferHitRate)
	fmt.Printf("sub-entry overflow  %d\n", r.SubEntryOverflows)
	fmt.Printf("HBM                 %.1f GB/s (util %.1f%%, row hit %.1f%%, read lat %.0f cyc)\n",
		r.HBMGBs, 100*r.HBMUtilization, 100*r.HBMRowHitRate, r.HBMAvgReadLat)
	fmt.Printf("DDR read latency    %.0f cyc\n", r.DDRAvgReadLat)
	for k := 0; k < mem.NumKinds; k++ {
		if r.HBMBytesByKind[k] == 0 {
			continue
		}
		fmt.Printf("  hbm %-10s     %.2f GB/s\n", mem.Kind(k), float64(r.HBMBytesByKind[k])/r.Seconds/1e9)
	}
	fmt.Printf("off-package         %.1f GB/s (util %.1f%%)\n", r.OffPkgGBs, 100*r.DDRUtilization)
	for k := 0; k < mem.NumKinds; k++ {
		if r.DDRBytesByKind[k] == 0 {
			continue
		}
		fmt.Printf("  ddr %-10s     %.2f GB/s\n", mem.Kind(k), float64(r.DDRBytesByKind[k])/r.Seconds/1e9)
	}
	if r.Scheme == system.SchemeTiD {
		c := r.Metrics.Counters
		ts := schemes.TiDStats{Hits: c["scheme.tid.hits"], Misses: c["scheme.tid.misses"],
			Coalesced: c["scheme.tid.coalesced"], Writebacks: c["scheme.tid.writebacks"],
			MSHRStalls: c["scheme.tid.mshr_stalls"]}
		fmt.Printf("tid                 hits %d misses %d (rate %.1f%%) coalesced %d wb %d mshrStalls %d\n",
			ts.Hits, ts.Misses, 100*ts.MissRate(), ts.Coalesced, ts.Writebacks, ts.MSHRStalls)
	}
	if dc := r.Metrics.Digests; dc != nil {
		fmt.Printf("digest chain        %d windows x %d cycles, final %s (compare runs with nomaddiff)\n",
			dc.Windows(), dc.Interval, dc.Final())
	}
	if tl := r.Metrics.Timeline; tl != nil {
		fmt.Printf("timeline            %d windows x %d cycles, %d metrics (full columns with -format json)\n",
			tl.Windows(), tl.Interval, len(tl.Metrics))
		printTimelineDigest(tl)
	}
	if h := r.Host; h != nil {
		fmt.Printf("host                %.2fs wall, %.2f Mcyc/s, %.2f Mevents/s, peak heap %.1f MB, %d GC pauses (%.2f ms)\n",
			h.WallSeconds, h.SimCyclesPerSec/1e6, h.EventsPerSec/1e6,
			float64(h.PeakHeapInUseBytes)/(1024*1024), h.GCPauses, float64(h.GCPauseTotalNs)/1e6)
	}
}

// timelineDigestCols are the whole-system columns the text rendering shows;
// the full per-core/per-kind set is available under -format json.
var timelineDigestCols = []string{"sim.ipc", "dc.hit_rate", "hbm.row_conflict_rate", "backend.pcshr_highwater"}

// printTimelineDigest renders a compact per-window table of the digest
// columns that were actually collected.
func printTimelineDigest(tl *metrics.TimelineSnapshot) {
	var cols []string
	for _, c := range timelineDigestCols {
		if tl.Metric(c) != nil {
			cols = append(cols, c)
		}
	}
	if len(cols) == 0 {
		return
	}
	fmt.Printf("  %-14s", "end (kcyc)")
	for _, c := range cols {
		fmt.Printf("  %s", c)
	}
	fmt.Println()
	for i, end := range tl.Cycles {
		fmt.Printf("  %-14d", end/1000)
		for _, c := range cols {
			fmt.Printf("  %*.3f", len(c), tl.Metric(c)[i])
		}
		fmt.Println()
	}
}

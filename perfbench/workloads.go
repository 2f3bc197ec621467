package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"nomad/internal/system"
	"nomad/internal/workload"
)

// Each workload is one 8-core simulation, run one at a time on one
// goroutine (a closed loop with a single client: the next run starts when
// the previous one returns). Run length is the experiments' fast tier: 300k
// warmup and 400k measured instructions per core. At that length a run
// takes 1–3 s on a 2-CPU host, so one benchmark run holds enough reps for
// its median to ride out the 1–2 s bursts of noise a shared host has.
const (
	warmupInstructions = 300_000
	roiInstructions    = 400_000
)

type workloadDef struct {
	name   string
	scheme system.SchemeName
	abbr   string // workload.Spec abbreviation
	why    string
}

// workloads contrast the layers: which scheme runs decides whether the OS
// front-end, the PCSHR back-end, the copier or the tags-in-DRAM path carry
// the traffic; which trace runs decides the TLB and DRAM pressure.
var workloads = []workloadDef{
	{"nomad-cact", system.SchemeNOMAD, "cact",
		"headline config; every layer busy and the only one where the PCSHR back-end has a real share"},
	{"tdc-cact", system.SchemeTDC, "cact",
		"blocking OS scheme on the same trace: most core-cycles OS-blocked, copier instead of PCSHRs"},
	{"tid-mcf", system.SchemeTiD, "mcf",
		"tags in DRAM: no OS front-end or PCSHRs, heaviest DRAM traffic, TLB-bound"},
	{"nomad-lbm", system.SchemeNOMAD, "lbm",
		"NOMAD on a store-heavy trace that mostly hits the DRAM cache: a fifth of the fills of nomad-cact, TLB-bound"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func (w workloadDef) config(seed uint64) system.Config {
	cfg := system.DefaultConfig()
	cfg.Scheme = w.scheme
	cfg.WarmupInstructions = warmupInstructions
	cfg.ROIInstructions = roiInstructions
	cfg.Seed = seed
	// Digests are what the output check compares; they cost about 0.1%.
	cfg.Digests = true
	return cfg
}

// build assembles the machine after a forced collection, so garbage from
// an earlier run does not land its collection in the timed set-up.
func (w workloadDef) build(seed uint64) (*system.Machine, float64, error) {
	spec, ok := workload.ByAbbr(w.abbr)
	if !ok {
		return nil, 0, fmt.Errorf("no workload spec %q", w.abbr)
	}
	runtime.GC()
	start := time.Now()
	m, err := system.New(w.config(seed), spec)
	return m, time.Since(start).Seconds(), err
}

// runResult is one simulation run as measured from outside the program.
type runResult struct {
	wallS       float64 // Machine.Run wall time
	roiWallS    float64 // wall time from the end of warmup to the end of Run
	insts       uint64  // instructions retired by all cores, warmup included
	roiEvents   uint64  // engine events in the measured region
	roiSkipped  uint64  // cycles fast-forwarded in the measured region
	liveHeapMB  float64 // heap in use after a forced GC, machine still live
	allocMB     float64 // bytes allocated by Run
	gcCount     uint32  // collections during Run
	digest      string
	res         *system.Result
	profile     []byte // gzipped CPU profile of the measured region, if traced
	cores       int
	checkFailed error
}

// runOnce runs m to completion. With traced set, a CPU profile covers the
// measured region: it starts at the warmup-complete progress report and
// stops when Run returns.
func runOnce(m *system.Machine, traced bool) (runResult, error) {
	var r runResult
	var roiStart time.Time
	var evAtROI, skipAtROI uint64
	var prof bytes.Buffer
	profiling := false
	var profErr error
	m.SetProgress(func(p system.Progress) {
		if p.Phase != "warmup" || p.Done < p.Target || !roiStart.IsZero() {
			return
		}
		evAtROI, skipAtROI = m.Engine().Executed(), m.Engine().SkippedCycles()
		if traced {
			if profErr = pprof.StartCPUProfile(&prof); profErr == nil {
				profiling = true
			}
		}
		roiStart = time.Now()
	})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := m.Run()
	end := time.Now()
	if profiling {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return r, err
	}
	if profErr != nil {
		return r, fmt.Errorf("cpu profile: %w", profErr)
	}
	runtime.ReadMemStats(&after)
	r.wallS = end.Sub(start).Seconds()
	if !roiStart.IsZero() {
		r.roiWallS = end.Sub(roiStart).Seconds()
	}
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	r.gcCount = after.NumGC - before.NumGC
	for _, c := range m.Cores() {
		r.insts += c.Stats().Instructions
	}
	r.cores = len(m.Cores())
	r.roiEvents = m.Engine().Executed() - evAtROI
	r.roiSkipped = m.Engine().SkippedCycles() - skipAtROI
	r.res = res
	if res.Metrics != nil && res.Metrics.Digests != nil {
		r.digest = res.Metrics.Digests.Final()
	}
	r.profile = prof.Bytes()

	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	r.liveHeapMB = float64(live.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(m)
	r.checkFailed = checkRun(r)
	return r, nil
}

// checkRun applies the checks one run can fail on its own: every core
// retired its warmup and measured instructions, the CPI stack accounts for
// every core-cycle of the measured region exactly, and the run produced a
// digest for checkDigests to compare.
func checkRun(r runResult) error {
	want := uint64(r.cores) * (warmupInstructions + roiInstructions)
	if r.insts < want {
		return fmt.Errorf("retired %d instructions, want at least %d", r.insts, want)
	}
	if total, cycles := r.res.CPIStack.Total(), r.res.Cycles*uint64(r.res.Cores); total != cycles {
		return fmt.Errorf("CPI stack sums to %d core-cycles, run has %d", total, cycles)
	}
	if r.digest == "" {
		return fmt.Errorf("run produced no digest")
	}
	return nil
}

// checkDigests compares the final digests of runs of one workload and
// seed, which must all be equal: the simulator is deterministic. The
// digest most runs agree on is taken as right; it returns whether each run
// disagrees with it. With no strict majority every run fails.
func checkDigests(digests []string) []bool {
	count := map[string]int{}
	for _, d := range digests {
		count[d]++
	}
	majority, best := "", 0
	for _, d := range digests {
		if count[d] > best {
			majority, best = d, count[d]
		}
	}
	bad := make([]bool, len(digests))
	for i, d := range digests {
		bad[i] = 2*best <= len(digests) || d != majority
	}
	return bad
}

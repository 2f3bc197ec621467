package nomad

import (
	"bytes"
	"strings"
	"testing"

	"nomad/internal/harness"
	"nomad/internal/obs"
	"nomad/internal/system"
)

func fastConfig(s Scheme) Config {
	return Config{
		Scheme:             s,
		Cores:              2,
		WarmupInstructions: 40_000,
		ROIInstructions:    80_000,
	}
}

func TestWorkloadCatalogue(t *testing.T) {
	ws := Workloads()
	if len(ws) != 15 {
		t.Fatalf("workloads = %d, want 15", len(ws))
	}
	w, err := WorkloadByAbbr("cact")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "cactusADM" || w.Class() != "Excess" || w.Suite() != "SPEC2006" {
		t.Fatalf("cact metadata wrong: %s/%s/%s", w.Name(), w.Class(), w.Suite())
	}
	if w.FootprintBytes() == 0 {
		t.Fatal("zero footprint")
	}
	if _, err := WorkloadByAbbr("bogus"); err == nil {
		t.Fatal("bogus workload found")
	}
	total := 0
	for _, c := range WorkloadClasses() {
		total += len(WorkloadsByClass(c))
	}
	if total != 15 {
		t.Fatalf("classes cover %d", total)
	}
}

func TestRunPublicAPI(t *testing.T) {
	w, _ := WorkloadByAbbr("tc")
	res, err := Run(fastConfig(SchemeNOMAD), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Cycles == 0 {
		t.Fatalf("degenerate result: %v", res)
	}
	if res.Scheme != SchemeNOMAD || res.Workload != "tc" {
		t.Fatalf("identity fields wrong: %v", res)
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
	if res.Breakdown(TrafficDemand) < 0 || res.Breakdown(BandwidthKind(99)) != 0 {
		t.Fatal("Breakdown misbehaved")
	}
}

func TestRunDeterminism(t *testing.T) {
	w, _ := WorkloadByAbbr("tc")
	a, err := Run(fastConfig(SchemeTDC), w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastConfig(SchemeTDC), w)
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC || a.Instructions != b.Instructions || a.TagMisses != b.TagMisses {
		t.Fatalf("repeat runs diverged: %v vs %v", a, b)
	}
}

func TestInvalidScheme(t *testing.T) {
	w, _ := WorkloadByAbbr("tc")
	if _, err := Run(Config{Scheme: "Nope"}, w); err == nil {
		t.Fatal("invalid scheme accepted")
	}
}

func TestCustomWorkload(t *testing.T) {
	w := NewWorkload(CustomSpec{
		Name:           "mini",
		FootprintPages: 2048,
		RunBlocks:      32,
		SeqPageFrac:    0.8,
		GapMean:        10,
		WriteFrac:      0.2,
	})
	if w.Class() != "Custom" {
		t.Fatalf("class = %s", w.Class())
	}
	res, err := Run(fastConfig(SchemeIdeal), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.RMHBGBs <= 0 {
		t.Fatal("custom streaming workload reported zero RMHB")
	}
}

func TestConfigKnobsReachBackend(t *testing.T) {
	w, _ := WorkloadByAbbr("tc")
	cfg := fastConfig(SchemeNOMAD)
	cfg.PCSHRs = 1
	small, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PCSHRs = 32
	large, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// With one PCSHR, commands queue: tag management cannot be faster
	// than with 32.
	if small.AvgTagMgmtLatency < large.AvgTagMgmtLatency {
		t.Fatalf("PCSHR knob had no effect: 1 -> %.0f, 32 -> %.0f",
			small.AvgTagMgmtLatency, large.AvgTagMgmtLatency)
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	w, _ := WorkloadByAbbr("cact")
	res, err := Run(fastConfig(SchemeNOMAD), w)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for k := TrafficDemand; k <= TrafficWalk; k++ {
		sum += res.Breakdown(k)
	}
	if diff := sum - res.HBMBandwidthGBs; diff > 0.01 || diff < -0.01 {
		t.Fatalf("breakdown sums to %.3f, total %.3f", sum, res.HBMBandwidthGBs)
	}
}

func TestStallRatiosBounded(t *testing.T) {
	w, _ := WorkloadByAbbr("cact")
	for _, s := range Schemes() {
		res, err := Run(fastConfig(s), w)
		if err != nil {
			t.Fatal(err)
		}
		if res.OSStallRatio < 0 || res.OSStallRatio > 1 ||
			res.MemStallRatio < 0 || res.MemStallRatio > 1 {
			t.Fatalf("%s: stall ratios out of range: %v", s, res)
		}
		if res.HBMRowHitRate < 0 || res.HBMRowHitRate > 1 ||
			res.BufferHitRate < 0 || res.BufferHitRate > 1 {
			t.Fatalf("%s: rates out of range: %v", s, res)
		}
		if res.Seconds <= 0 || res.IPC <= 0 {
			t.Fatalf("%s: degenerate timing: %v", s, res)
		}
	}
}

func TestSelectiveCachingKnob(t *testing.T) {
	w, _ := WorkloadByAbbr("bfs")
	cfg := fastConfig(SchemeNOMAD)
	always, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CacheTouchThreshold = 2
	second, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if second.RMHBGBs >= always.RMHBGBs {
		t.Fatalf("second-touch filter did not cut fill bandwidth: %.2f vs %.2f",
			second.RMHBGBs, always.RMHBGBs)
	}
}

func TestSchemesList(t *testing.T) {
	if len(Schemes()) != 5 {
		t.Fatalf("schemes = %v", Schemes())
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 15 {
		t.Fatalf("experiments = %d, want 15", len(exps))
	}
	var buf bytes.Buffer
	if err := RunExperiment("no-such", ExperimentOptions{}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, e := range exps {
		if e.Title == "" {
			t.Fatalf("%s has no title", e.ID)
		}
		id := strings.ToLower(e.ID)
		if !strings.Contains(id, "table") && !strings.Contains(id, "fig") &&
			id != "ablations" && id != "replacement" && id != "selective" &&
			id != "cpistack" && id != "timeline" {
			t.Fatalf("unexpected experiment id %q", e.ID)
		}
	}
}

// TestManifestAddressAgreesAcrossEntryPoints: the public API and the harness
// (RunExperimentResult, cmd/experiments, cmd/nomadsim) address the same run
// alike, whether its telemetry defaults are left at zero or spelled out.
func TestManifestAddressAgreesAcrossEntryPoints(t *testing.T) {
	w, err := WorkloadByAbbr("cact")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ManifestFor(Config{Scheme: SchemeNOMAD}, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.Options{}.BaseConfig()
	cfg.Scheme = system.SchemeNOMAD
	if got := obs.NewManifest(cfg, w.spec).Address; got != pub.Address {
		t.Errorf("harness address %s, ManifestFor address %s", got, pub.Address)
	}
	cfg.Telemetry = Telemetry{Interval: 100_000, SpanSampleEvery: 64}
	if got := obs.NewManifest(cfg, w.spec).Address; got != pub.Address {
		t.Errorf("address with spelled-out defaults %s, ManifestFor address %s", got, pub.Address)
	}
}

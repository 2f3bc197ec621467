package obs

import (
	"encoding/json"
	"regexp"
	"testing"

	"nomad/internal/system"
	"nomad/internal/workload"
)

// testConfig is a fast two-core configuration for manifest/run tests.
func testConfig() system.Config {
	cfg := system.DefaultConfig()
	cfg.Cores = 2
	cfg.CacheFrames = 2048
	cfg.WarmupInstructions = 20_000
	cfg.ROIInstructions = 40_000
	cfg.MaxCycles = 80_000_000
	return cfg
}

func testSpec() workload.Spec {
	return workload.Spec{
		Name: "test-stream", Abbr: "ts", Class: "Excess",
		FootprintPages: 4096,
		RunBlocks:      64, SeqPageFrac: 0.9,
		GapMean: 8, WriteFrac: 0.25,
	}
}

// TestManifestStable is the content-address contract: the address is
// identical across repeated computations and across the host-only
// self-profiling knob — backed by actually running the variants and
// checking their snapshots really are byte-identical — and differs as soon
// as a result-bearing knob changes.
func TestManifestStable(t *testing.T) {
	spec := testSpec()
	base := NewManifest(testConfig(), spec)
	if m := regexp.MustCompile(`^sha256:[0-9a-f]{64}$`); !m.MatchString(base.Address) {
		t.Fatalf("address %q does not match sha256:<hex64>", base.Address)
	}

	variants := []struct {
		name string
		cfg  system.Config
	}{
		{"repeat", testConfig()},
		{"self-profile", func() system.Config {
			c := testConfig()
			c.SelfProfile = true
			return c
		}()},
	}
	var refSnap []byte
	for _, v := range variants {
		man := NewManifest(v.cfg, spec)
		if man.Address != base.Address {
			t.Errorf("%s: address %s, want %s", v.name, man.Address, base.Address)
		}
		m, err := system.New(v.cfg, spec)
		if err != nil {
			t.Fatalf("%s: New: %v", v.name, err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: Run: %v", v.name, err)
		}
		snap, err := json.Marshal(res.Metrics)
		if err != nil {
			t.Fatalf("%s: marshal: %v", v.name, err)
		}
		if refSnap == nil {
			refSnap = snap
		} else if string(snap) != string(refSnap) {
			t.Errorf("%s: snapshot differs from reference despite equal manifest address", v.name)
		}
	}

	diff := []struct {
		name string
		cfg  system.Config
		spec workload.Spec
	}{
		{"seed", func() system.Config { c := testConfig(); c.Seed = 99; return c }(), spec},
		{"scheme", func() system.Config { c := testConfig(); c.Scheme = system.SchemeTiD; return c }(), spec},
		{"roi", func() system.Config { c := testConfig(); c.ROIInstructions++; return c }(), spec},
		{"trace depth", func() system.Config { c := testConfig(); c.TraceDepth = 1024; return c }(), spec},
		{"workload", testConfig(), func() workload.Spec { s := spec; s.GapMean = 9; return s }()},
	}
	for _, d := range diff {
		if man := NewManifest(d.cfg, d.spec); man.Address == base.Address {
			t.Errorf("%s change did not change the address", d.name)
		}
	}
}

// TestManifestFields checks the convenience duplicates and the canonical
// document round-trip.
func TestManifestFields(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 7
	man := NewManifest(cfg, testSpec())
	if man.Scheme != string(cfg.Scheme) || man.Workload != "ts" || man.Seed != 7 {
		t.Errorf("fields = %s/%s/%d, want %s/ts/7", man.Scheme, man.Workload, man.Seed, cfg.Scheme)
	}
	var doc struct {
		Config system.Config `json:"config"`
	}
	if err := json.Unmarshal(man.Canonical(), &doc); err != nil {
		t.Fatalf("canonical does not parse: %v", err)
	}
	if doc.Config.SelfProfile {
		t.Errorf("canonical config retains host-only knobs: %+v", doc.Config)
	}
	if doc.Config.Seed != 7 {
		t.Errorf("canonical seed = %d, want 7", doc.Config.Seed)
	}
	var nilMan *Manifest
	if nilMan.Canonical() != nil {
		t.Error("nil manifest Canonical() should be nil")
	}
}

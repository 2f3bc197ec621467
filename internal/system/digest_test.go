package system

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// digestConfig is smallConfig with digest capture on at a short interval so
// several windows fit in the small ROI.
func digestConfig(scheme SchemeName) Config {
	cfg := smallConfig(scheme)
	cfg.Digests = true
	cfg.Interval = 20_000
	return cfg
}

// TestDigestChainByteIdentical is the digest determinism contract the whole
// diag subsystem rests on: for every scheme, the digest chain must be
// byte-for-byte identical across both engines and fast-forward on/off. A
// digest difference must mean the runs behaved differently — never that the
// host executed them differently.
func TestDigestChainByteIdentical(t *testing.T) {
	for _, s := range AllSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			var ref []byte
			var refVariant string
			for _, engine := range engines {
				for _, ff := range []bool{true, false} {
					r, err := newOn(t, engine, ff, digestConfig(s), smallSpec()).Run()
					if err != nil {
						t.Fatal(err)
					}
					dc := r.Metrics.Digests
					if dc == nil {
						t.Fatal("Config.Digests produced no chain")
					}
					if dc.Windows() == 0 {
						t.Fatal("digest chain is empty")
					}
					enc, err := json.Marshal(dc)
					if err != nil {
						t.Fatal(err)
					}
					variant := fmt.Sprintf("engine=%s/ff=%v", engine, ff)
					if ref == nil {
						ref, refVariant = enc, variant
						continue
					}
					if string(enc) != string(ref) {
						t.Errorf("digest chain differs between %s and %s\n%s: %.300s\n%s: %.300s",
							refVariant, variant, refVariant, ref, variant, enc)
					}
				}
			}
		})
	}
}

// TestDigestChainChangesWithSeed is the other half of the contract: two runs
// that do behave differently must diverge, and the chain property holds —
// once one window differs, every later window differs too.
func TestDigestChainChangesWithSeed(t *testing.T) {
	run := func(seed uint64) *Result {
		cfg := digestConfig(SchemeTDC)
		cfg.Seed = seed
		m, err := New(cfg, smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(1).Metrics.Digests, run(2).Metrics.Digests
	i := a.FirstDivergence(b)
	if i < 0 {
		t.Fatal("different seeds produced identical digest chains")
	}
	n := a.Windows()
	if b.Windows() < n {
		n = b.Windows()
	}
	for j := i; j < n; j++ {
		if a.Digests[j] == b.Digests[j] && a.Cycles[j] == b.Cycles[j] {
			t.Errorf("window %d re-converged after divergence at %d: chaining broken", j, i)
		}
	}
}

// TestDigestsOffByDefault pins the opt-in: without Config.Digests the
// snapshot carries no chain and the JSON encoding is unchanged.
func TestDigestsOffByDefault(t *testing.T) {
	r := runScheme(t, SchemeNOMAD)
	if r.Metrics.Digests != nil {
		t.Error("digest chain present without Config.Digests")
	}
	enc, err := json.Marshal(r.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(enc, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["digests"]; ok {
		t.Error(`"digests" key emitted without Config.Digests`)
	}
}

// TestROICycleLimit pins the partial-replay primitive Bisect relies on: a
// run cut off at cycle N ends at exactly N (ROI-relative), is a
// deterministic prefix of the full run, and behaves identically across
// engines and fast-forward modes.
func TestROICycleLimit(t *testing.T) {
	full := func() *Result {
		cfg := digestConfig(SchemeTDC)
		cfg.Timeline = true
		m, err := New(cfg, smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()
	fullDC := full.Metrics.Digests
	if fullDC.Windows() < 2 {
		t.Fatalf("full run collected %d windows; test needs >= 2", fullDC.Windows())
	}
	// Cut at the end of the second window.
	stop := fullDC.Cycles[1]

	var ref *Result
	for _, engine := range engines {
		for _, ff := range []bool{true, false} {
			cfg := digestConfig(SchemeTDC)
			cfg.Timeline = true
			cfg.ROICycleLimit = stop
			r, err := newOn(t, engine, ff, cfg, smallSpec()).Run()
			if err != nil {
				t.Fatalf("cutoff run (engine=%s ff=%v): %v", engine, ff, err)
			}
			if r.Cycles != stop {
				t.Fatalf("engine=%s ff=%v: cutoff run ended at cycle %d, want exactly %d", engine, ff, r.Cycles, stop)
			}
			// The partial chain must be a prefix of the full run's chain.
			pdc := r.Metrics.Digests
			if pdc.Windows() != 2 {
				t.Fatalf("engine=%s ff=%v: cutoff run collected %d windows, want 2", engine, ff, pdc.Windows())
			}
			for i := 0; i < 2; i++ {
				if pdc.Digests[i] != fullDC.Digests[i] || pdc.Cycles[i] != fullDC.Cycles[i] {
					t.Errorf("engine=%s ff=%v: window %d = (%d, %s), full run has (%d, %s): not a prefix",
						engine, ff, i, pdc.Cycles[i], pdc.Digests[i], fullDC.Cycles[i], fullDC.Digests[i])
				}
			}
			if ref == nil {
				ref = r
				continue
			}
			// Cutoff runs must also be variant-invariant among themselves.
			if !reflect.DeepEqual(r.Metrics, ref.Metrics) {
				t.Errorf("engine=%s ff=%v: cutoff snapshot differs from first variant", engine, ff)
			}
		}
	}
}

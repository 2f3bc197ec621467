package nomad

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestDefaultConfigMatchesZero pins the DefaultConfig contract: it is the
// zero Config with every default spelled out, so both must resolve to the
// same internal configuration.
func TestDefaultConfigMatchesZero(t *testing.T) {
	def := DefaultConfig().toInternal()
	zero := Config{}.toInternal()
	if !reflect.DeepEqual(def, zero) {
		t.Fatalf("DefaultConfig resolves differently from the zero Config:\n default: %+v\n zero:    %+v", def, zero)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig does not validate: %v", err)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error, "" for valid
	}{
		{"zero", Config{}, ""},
		{"bad scheme", Config{Scheme: "Nope"}, "unknown scheme"},
		{"negative cores", Config{Cores: -1}, "negative core count"},
		{"most cores", Config{Cores: 64}, ""},
		{"too many cores", Config{Cores: 65}, "exceed the limit of 64"},
		{"huge core count", Config{Cores: 1 << 40}, "exceed the limit of 64"},
		{"negative trace depth", Config{Telemetry: Telemetry{TraceDepth: -4}}, "negative trace depth"},
		{"deepest trace", Config{Telemetry: Telemetry{TraceDepth: 1 << 20, SpanDepth: 1 << 20}}, ""},
		{"huge trace depth", Config{Telemetry: Telemetry{TraceDepth: 1 << 40}}, "trace depth"},
		{"huge span depth", Config{Telemetry: Telemetry{SpanDepth: 1 << 40}}, "span depth"},
		{"buffers beyond pcshrs", Config{PCSHRs: 4, CopyBuffers: 8}, "exceed"},
		{"buffers at default pcshrs", Config{CopyBuffers: 16}, ""},
		{"buffers beyond default pcshrs", Config{CopyBuffers: 32}, "exceed PCSHRs (16)"},
		{"most pcshrs", Config{PCSHRs: 1024, CopyBuffers: 1024}, ""},
		{"huge pcshr count", Config{PCSHRs: 1 << 50}, "exceed the limit of 1024"},
		{"longest verify latency", Config{VerifyLatency: 400_000_000}, ""},
		{"verify latency wraps the clock", Config{VerifyLatency: math.MaxUint64}, "verify latency"},
		{"tag latency wraps the clock", Config{TagMgmtLatency: math.MaxUint64}, "tag management latency"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: error missing", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestRunRejectsInvalidConfig pins that Run validates before building the
// machine and reports the typed validate error.
func TestRunRejectsInvalidConfig(t *testing.T) {
	w, err := WorkloadByAbbr("tc")
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := Run(Config{Scheme: "Nope"}, w)
	var e *Error
	if !errors.As(rerr, &e) {
		t.Fatalf("err = %T, want *nomad.Error", rerr)
	}
	if e.Op != "validate" || e.Workload != "tc" {
		t.Fatalf("error identity wrong: %+v", e)
	}
}

// FuzzConfig drives Validate and Run over the back-end, latency,
// selective-caching and capture knobs of a small fixed machine (2 cores,
// 2k warmup and 2k ROI instructions). A config Validate rejects must fail
// Run with the same typed "validate" *Error; one it accepts must run to
// completion or fail with a typed *Error, never panic.
func FuzzConfig(f *testing.F) {
	// The three configs Validate let through before copy buffers, PCSHRs
	// and latencies were bounded, then one that runs.
	f.Add(0, 32, false, uint64(0), uint64(0), uint64(0), 0, 0)
	f.Add(1<<50, 0, false, uint64(0), uint64(0), uint64(0), 0, 0)
	f.Add(0, 0, false, uint64(0), uint64(math.MaxUint64), uint64(0), 0, 0)
	f.Add(4, 2, true, uint64(100), uint64(1), uint64(2), 64, 64)
	w, err := WorkloadByAbbr("tc")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, pcshrs, buffers int, distributed bool, tagLat, verifyLat, touch uint64, traceDepth, spanDepth int) {
		cfg := Config{
			Cores: 2, WarmupInstructions: 2000, ROIInstructions: 2000,
			PCSHRs: pcshrs, CopyBuffers: buffers, DistributedBackends: distributed,
			TagMgmtLatency: tagLat, VerifyLatency: verifyLat, CacheTouchThreshold: touch,
			Telemetry: Telemetry{TraceDepth: traceDepth, SpanDepth: spanDepth},
		}
		verr := cfg.Validate()
		_, err := Run(cfg, w)
		var e *Error
		if err != nil && !errors.As(err, &e) {
			t.Fatalf("Run(%+v) = %T %v, want *nomad.Error", cfg, err, err)
		}
		if verr != nil && (e == nil || e.Op != "validate") {
			t.Fatalf("Validate rejected %+v (%v), Run returned %v", cfg, verr, err)
		}
	})
}

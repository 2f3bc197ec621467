package nomad

import (
	"errors"
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
		{"buffers beyond pcshrs", Config{PCSHRs: 4, CopyBuffers: 8}, "exceed"},
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

package lint

import (
	"strings"
	"testing"
)

func TestIgnoreSameLine(t *testing.T) {
	diags := lintSnippet(t, `package model

import "time"

func stamp() time.Time {
	return time.Now() //nomadlint:ignore wallclock -- host-facing timestamp for logs
}
`, snippetConfig(), nil)
	wantDiags(t, diags)
}

func TestIgnorePrecedingLine(t *testing.T) {
	diags := lintSnippet(t, `package model

import "time"

func stamp() time.Time {
	//nomadlint:ignore wallclock -- host-facing timestamp for logs
	return time.Now()
}
`, snippetConfig(), nil)
	wantDiags(t, diags)
}

func TestIgnoreMultipleRules(t *testing.T) {
	diags := lintSnippet(t, `package model

import "time"

func eta(rem float64) time.Duration {
	//nomadlint:ignore floatclock, wallclock -- display-only estimate
	return time.Duration(rem * float64(time.Second))
}
`, snippetConfig(), nil)
	wantDiags(t, diags)
}

func TestIgnoreWrongRuleDoesNotSuppress(t *testing.T) {
	diags := lintSnippet(t, `package model

import "time"

func stamp() time.Time {
	//nomadlint:ignore obsboundary -- irrelevant rule
	return time.Now()
}
`, snippetConfig(), nil)
	wantDiags(t, diags, [2]any{"wallclock", 7})
}

func TestIgnoreMissingReason(t *testing.T) {
	diags := lintSnippet(t, `package model

import "time"

func stamp() time.Time {
	//nomadlint:ignore wallclock
	return time.Now()
}
`, snippetConfig(), nil)
	if len(diags) != 2 {
		t.Fatalf("want directive + wallclock diagnostics, got %v", diags)
	}
	var sawDirective, sawWallclock bool
	for _, d := range diags {
		switch d.Rule {
		case "directive":
			sawDirective = true
			if !strings.Contains(d.Message, "justification") {
				t.Errorf("directive message = %q", d.Message)
			}
		case "wallclock":
			// The malformed directive must not suppress.
			sawWallclock = true
		}
	}
	if !sawDirective || !sawWallclock {
		t.Errorf("got %v", rulesOf(diags))
	}
}

func TestIgnoreTrivialReason(t *testing.T) {
	// Punctuation or an "ok"-style shrug is not a justification: the
	// directive is diagnosed and must not suppress.
	for _, reason := range []string{".", "ok", "x", "-- --", "a b c"} {
		diags := lintSnippet(t, `package model

import "time"

func stamp() time.Time {
	//nomadlint:ignore wallclock -- `+reason+`
	return time.Now()
}
`, snippetConfig(), nil)
		var sawDirective, sawWallclock bool
		for _, d := range diags {
			switch d.Rule {
			case "directive":
				sawDirective = true
				if !strings.Contains(d.Message, "not substantive") {
					t.Errorf("reason %q: directive message = %q", reason, d.Message)
				}
			case "wallclock":
				sawWallclock = true
			}
		}
		if !sawDirective || !sawWallclock {
			t.Errorf("reason %q: got %v, want directive + unsuppressed wallclock", reason, rulesOf(diags))
		}
	}
}

func TestIgnoreSubstantiveReasonAccepted(t *testing.T) {
	// Three consecutive letters anywhere marks a real word; the directive
	// parses and suppresses.
	diags := lintSnippet(t, `package model

import "time"

func stamp() time.Time {
	//nomadlint:ignore wallclock -- UI-only
	return time.Now()
}
`, snippetConfig(), nil)
	wantDiags(t, diags)
}

func TestIgnoreUnknownRule(t *testing.T) {
	diags := lintSnippet(t, `package model

//nomadlint:ignore nosuchrule -- reason here
func ok() {}
`, snippetConfig(), nil)
	wantDiags(t, diags, [2]any{"directive", 3})
}

package lint

import (
	"strings"
	"testing"
)

// statecoverConfig scopes the interprocedural rule to the m/model overlay
// package and restricts the run to the named rules so snippets cannot trip
// unrelated syntactic rules.
func statecoverConfig(rules ...string) Config {
	return Config{
		ModelPackages:      []string{"model"},
		StateCoverPackages: []string{"model"},
		Rules:              rules,
	}
}

// statecoverMetrics is the fake registry overlay shared by the coverage
// snippets.
func statecoverMetrics() map[string]map[string]string {
	return map[string]map[string]string{
		"m/internal/metrics": fakeStd["m/internal/metrics"],
	}
}

func TestStateCoverUncoveredField(t *testing.T) {
	diags := lintSnippet(t, `package model

import "m/internal/metrics"

type unit struct {
	hits  uint64
	depth int // line 7: mutated, never registered
}

func (u *unit) step() { u.hits++; u.depth++ }

func register(r *metrics.Registry, u *unit) {
	r.CounterFunc("unit.hits", func() uint64 { return u.hits })
}
`, statecoverConfig("statecover"), statecoverMetrics())
	wantDiags(t, diags, [2]any{"statecover", 7})
	if !strings.Contains(diags[0].Message, "//nomad:ephemeral") {
		t.Errorf("message should name the escape hatch: %s", diags[0].Message)
	}
}

func TestStateCoverEphemeralField(t *testing.T) {
	diags := lintSnippet(t, `package model

import "m/internal/metrics"

type unit struct {
	hits  uint64
	depth int //nomad:ephemeral scratch cursor; divergence shows in hits
}

func (u *unit) step() { u.hits++; u.depth++ }

func register(r *metrics.Registry, u *unit) {
	r.CounterFunc("unit.hits", func() uint64 { return u.hits })
}
`, statecoverConfig("statecover"), statecoverMetrics())
	wantDiags(t, diags)
}

func TestStateCoverEphemeralStruct(t *testing.T) {
	diags := lintSnippet(t, `package model

// scratch is working state with no registered counters at all.
//
//nomad:ephemeral pure working state; divergence surfaces downstream
type scratch struct {
	a int
	b int
}

func (s *scratch) step() { s.a++; s.b++ }
`, statecoverConfig("statecover"), statecoverMetrics())
	wantDiags(t, diags)
}

func TestStateCoverEphemeralNeedsReason(t *testing.T) {
	diags := lintSnippet(t, `package model

type unit struct {
	depth int //nomad:ephemeral
}

func (u *unit) step() { u.depth++ }
`, statecoverConfig("statecover"), statecoverMetrics())
	// The reasonless marker is diagnosed and does NOT exempt the field.
	wantDiags(t, diags, [2]any{"statecover", 4}, [2]any{"statecover", 4})
}

func TestStateCoverExemptions(t *testing.T) {
	diags := lintSnippet(t, `package model

import "m/internal/metrics"

// wired holds only callback and metrics plumbing.
type wired struct {
	cb   func()
	hist *metrics.Histogram
}

func (w *wired) set(f func(), h *metrics.Histogram) { w.cb = f; w.hist = h }

// req is a pooled in-flight carrier: recycled state, ephemeral by contract.
type req struct{ addr uint64 }

func (q *req) reset(a uint64) { q.addr = a }
`, statecoverConfig("statecover"), statecoverMetrics())
	wantDiags(t, diags)
}

func TestStateCoverUnannotatedStruct(t *testing.T) {
	// Every mutable struct in scope is checked, annotated or not; a struct
	// that is only ever read has nothing to cover.
	diags := lintSnippet(t, `package model

type counter struct {
	n int // line 4: mutated, unannotated, unregistered
}

func (c *counter) inc() { c.n++ }

type frozen struct{ v int }

func (f frozen) get() int { return f.v }
`, statecoverConfig("statecover"), statecoverMetrics())
	wantDiags(t, diags, [2]any{"statecover", 4})
}

func TestStateCoverMethodValueRegistration(t *testing.T) {
	diags := lintSnippet(t, `package model

import "m/internal/metrics"

type unit struct{ hits uint64 }

func (u *unit) step() { u.hits++ }

func (u *unit) sample() uint64 { return u.hits }

func register(r *metrics.Registry, u *unit) {
	r.CounterFunc("unit.hits", u.sample) // method value as root
}
`, statecoverConfig("statecover"), statecoverMetrics())
	wantDiags(t, diags)
}

func TestStateCoverTransitiveCoverage(t *testing.T) {
	diags := lintSnippet(t, `package model

import "m/internal/metrics"

type unit struct{ hits uint64 }

func (u *unit) step() { u.hits++ }

func (u *unit) total() uint64 { return u.hits }

func register(r *metrics.Registry, u *unit) {
	// Coverage must follow the call graph out of the closure.
	r.CounterFunc("unit.hits", func() uint64 { return u.total() })
}
`, statecoverConfig("statecover"), statecoverMetrics())
	wantDiags(t, diags)
}

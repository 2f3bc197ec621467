package lint

import "testing"

// The call-graph edge cases pin the analyzer's resolution strategy through
// the statecover rule it serves: a mutated field is covered only when a
// metrics registration reaches a read of it along call-graph edges, so each
// snippet below has a field that is covered, or not, exactly when the edge
// under test is (or is not) followed. Exact: static calls, generic
// instantiations resolved to their origin. Conservative: interface dispatch
// fans out to every implementer. Excluded: files behind build constraints
// the simulator does not ship with.

func TestCallGraphInterfaceConservativeFallback(t *testing.T) {
	// The registration reads through an interface; the analyzer cannot know
	// the dynamic type, so it must fan out to every module implementer and
	// count both fields as covered.
	diags := lintSnippet(t, `package model

import "m/internal/metrics"

type source interface{ level() uint64 }

type unit struct{ depth uint64 }

func (u *unit) step()         { u.depth++ }
func (u *unit) level() uint64 { return u.depth }

type other struct{ n uint64 }

func (o *other) step()         { o.n++ }
func (o *other) level() uint64 { return o.n }

func register(r *metrics.Registry, s source) {
	r.CounterFunc("source.level", func() uint64 { return s.level() })
}
`, statecoverConfig("statecover"), statecoverMetrics())
	wantDiags(t, diags)
}

func TestCallGraphBuildTaggedFileExcluded(t *testing.T) {
	// The only registration reading Unit.Depth sits behind a build tag the
	// simulator does not ship with: it is invisible to the analyzer,
	// matching the compiled build graph, so the field stays uncovered.
	extra := statecoverMetrics()
	extra["m/hooks"] = map[string]string{
		"m/hooks/hooks.go": "package hooks\n",
		"m/hooks/debug.go": `//go:build debughooks

package hooks

import (
	"m/internal/metrics"
	"m/model"
)

func Register(r *metrics.Registry, u *model.Unit) {
	r.CounterFunc("unit.depth", func() uint64 { return u.Depth })
}
`,
	}
	diags := lintSnippet(t, `package model

type Unit struct {
	Depth uint64 // line 4: registered only by the excluded file
}

func (u *Unit) Step() { u.Depth++ }
`, statecoverConfig("statecover"), extra)
	wantDiags(t, diags, [2]any{"statecover", 4})
}

func TestCallGraphGenericsInstantiation(t *testing.T) {
	// Generic structs are analyzed at their origin: two instantiations must
	// produce one finding at the generic field declaration, and a call on
	// an instantiated type must resolve to the origin method's reads.
	diags := lintSnippet(t, `package model

import "m/internal/metrics"

type ring[T any] struct {
	buf  []T // line 6: mutated via both instantiations, flagged once
	head int
}

func (r *ring[T]) push(v T) {
	r.buf = append(r.buf, v)
	r.head++
}

func (r *ring[T]) size() uint64 { return uint64(r.head) }

//nomad:ephemeral fixture: instantiation driver state
type driver struct {
	a ring[int]
	b ring[string]
}

func (d *driver) step() {
	d.a.push(1)
	d.b.push("s")
}

func register(reg *metrics.Registry, d *driver) {
	reg.CounterFunc("ring.size", func() uint64 { return d.a.size() })
}
`, statecoverConfig("statecover"), statecoverMetrics())
	wantDiags(t, diags, [2]any{"statecover", 6})
}

func TestCallGraphStaticForwarderPropagation(t *testing.T) {
	// Coverage must flow through chains of plain (non-method) forwarder
	// functions, and only along them: a field read solely by a function no
	// registration reaches stays uncovered.
	diags := lintSnippet(t, `package model

import "m/internal/metrics"

type unit struct {
	depth uint64
	spare uint64 // line 7: read, but not from any registration
}

func (u *unit) step() { u.depth++; u.spare++ }

func level(u *unit) uint64  { return read(u) }
func read(u *unit) uint64   { return u.depth }
func unused(u *unit) uint64 { return u.spare }

func register(r *metrics.Registry, u *unit) {
	r.CounterFunc("unit.depth", func() uint64 { return level(u) })
}
`, statecoverConfig("statecover"), statecoverMetrics())
	wantDiags(t, diags, [2]any{"statecover", 7})
}

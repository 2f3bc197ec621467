package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkStateCover flags mutable fields of every struct in state-coverage
// scope that are invisible to observability: not read by anything reachable
// from a metrics registration (the counters, series, and interval samplers
// the snapshot fold and digest chain consume), not metrics machinery
// themselves, not callbacks, and not annotated //nomad:ephemeral. Such state
// can survive into the ROI while escaping every digest — the divergence
// class nomaddiff cannot localize.
func checkStateCover(mod *Module, cfg *Config, ann *annotations, cg *callGraph, acc *accesses) []Diagnostic {
	covered := coveredFields(mod, cg, acc)
	var diags []Diagnostic
	for _, si := range ann.structs {
		if !cfg.isStateCover(mod.Path, si.pkg.Path) {
			continue
		}
		if ann.ephType[si.tn] || ann.pooled[si.tn] {
			// Pooled carriers are recycled in-flight state; their pool
			// population is ephemeral by contract.
			continue
		}
		for _, fi := range si.fields {
			key := fieldKey{si.tn, fi.name}
			if !acc.mutFields[key] && !acc.wholeWritten[si.tn] {
				continue
			}
			if ann.ephField[key] || covered[key] {
				continue
			}
			if isFuncValued(fi.ftype) || isMetricsValued(fi.ftype) {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos: fi.pos, Rule: "statecover",
				Message: "mutable field " + si.tn.Name() + "." + fi.name + " is invisible to observability: no metrics registration reads it; register it, or annotate //nomad:ephemeral <reason> if divergence in it is observable elsewhere",
			})
		}
	}
	return diags
}

// coveredFields computes the set of fields read by code reachable from any
// metrics-registration argument (closures and named functions handed to
// Registry methods), following every edge kind — coverage errs generous.
func coveredFields(mod *Module, cg *callGraph, acc *accesses) map[fieldKey]bool {
	var roots []*cgNode
	for _, p := range mod.Sorted() {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(p.Info, call)
				if fn == nil {
					return true
				}
				if _, ok := isRegistryMethod(fn); !ok {
					return true
				}
				for _, arg := range call.Args {
					if r := rootNodeOf(p, cg, arg); r != nil {
						roots = append(roots, r)
					}
				}
				return true
			})
		}
	}
	covered := map[fieldKey]bool{}
	seen := map[*cgNode]bool{}
	for len(roots) > 0 {
		n := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		for k := range acc.readsBy[n] {
			covered[k] = true
		}
		for _, to := range n.out {
			if !seen[to] {
				roots = append(roots, to)
			}
		}
	}
	return covered
}

// rootNodeOf resolves a registration argument to its call-graph node:
// a function literal, a named function, or a method value.
func rootNodeOf(p *Package, cg *callGraph, arg ast.Expr) *cgNode {
	switch x := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return cg.byLit[x]
	case *ast.Ident:
		if fn, ok := p.Info.Uses[x].(*types.Func); ok {
			return cg.byFunc[fn.Origin()]
		}
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[x]; ok && s.Kind() == types.MethodVal {
			if fn, ok := s.Obj().(*types.Func); ok {
				return cg.byFunc[fn.Origin()]
			}
		}
		if fn, ok := p.Info.Uses[x.Sel].(*types.Func); ok {
			return cg.byFunc[fn.Origin()]
		}
	}
	return nil
}

// isFuncValued reports whether t stores callbacks (possibly inside
// containers): callback slots are wiring, not digestable state.
func isFuncValued(t types.Type) bool {
	t = elemType(t)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// isMetricsValued reports whether t is (a container of) a type from the
// metrics package — registry plumbing is host-observability machinery, with
// its own determinism story.
func isMetricsValued(t types.Type) bool {
	t = elemType(t)
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && strings.HasSuffix(pkg.Path(), "metrics")
}

// elemType unwraps pointers, slices, arrays, and map values.
func elemType(t types.Type) types.Type {
	for t != nil {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Slice:
			t = tt.Elem()
		case *types.Array:
			t = tt.Elem()
		case *types.Map:
			t = tt.Elem()
		default:
			return t
		}
	}
	return nil
}

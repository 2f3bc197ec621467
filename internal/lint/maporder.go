package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// orderInsensitiveBuiltins may be called inside a map-range body without
// making iteration order observable: they are pure with respect to order
// (append is special-cased separately — collecting keys for a later sort is
// the sanctioned idiom).
var orderInsensitiveBuiltins = map[string]bool{
	"len": true, "cap": true, "append": true, "delete": true,
	"make": true, "copy": true, "min": true, "max": true,
}

// checkMapOrder flags `range` over a map in model packages when the loop
// body could observe iteration order. Two body shapes are allowed without a
// directive, because they are order-insensitive by construction:
//
//   - pure reductions: assignments, comparisons, branches — no function
//     calls other than order-insensitive builtins (min/max/len/append/...),
//     and no floating-point accumulation (float += reorders rounding);
//   - key collection: append of values into a slice for a subsequent sort
//     (the collect-then-sort idiom).
//
// Anything that calls a user function per iteration, accumulates floats, or
// leaves the loop early (return, break, goto: the first element the map
// yields wins) is flagged: either restructure over sorted keys or annotate
// with //nomadlint:ignore maporder -- <why order cannot matter>.
func checkMapOrder(mod *Module, cfg *Config) []Diagnostic {
	var diags []Diagnostic
	for _, p := range mod.Sorted() {
		if !cfg.isModel(mod.Path, p.Path) {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := p.Info.Types[rng.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if why, bad := orderSensitive(p.Info, rng.Body); bad {
					diags = append(diags, Diagnostic{
						Pos: mod.Fset.Position(rng.Pos()), Rule: "maporder",
						Message: "range over map with an order-sensitive body (" + why + "); iterate sorted keys or annotate with //nomadlint:ignore maporder -- <reason>",
					})
				}
				return true
			})
		}
	}
	return diags
}

// orderSensitive inspects a map-range body and reports the first construct
// that could leak iteration order, if any.
func orderSensitive(info *types.Info, body *ast.BlockStmt) (why string, bad bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if bad {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					if _, isBuiltin := obj.(*types.Builtin); isBuiltin && orderInsensitiveBuiltins[id.Name] {
						return true
					}
				}
			}
			// Conversions (T(x)) are pure; allow them.
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				return true
			}
			why, bad = "calls a function per iteration", true
			return false
		case *ast.AssignStmt:
			// Floating-point accumulation depends on visit order.
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN ||
				n.Tok == token.MUL_ASSIGN || n.Tok == token.QUO_ASSIGN {
				for _, lhs := range n.Lhs {
					if tv, ok := info.Types[lhs]; ok && tv.Type != nil {
						if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
							why, bad = "accumulates floating point across iterations", true
							return false
						}
					}
				}
			}
		case *ast.ReturnStmt:
			why, bad = "returns from inside the iteration", true
			return false
		}
		return true
	})
	if !bad && leavesLoop(body) {
		why, bad = "leaves the iteration early with break or goto", true
	}
	return why, bad
}

// leavesLoop reports whether a loop body holds a branch that ends the loop:
// a break or goto to a label declared outside the body, or an unlabeled
// break that no inner for, switch or select binds.
func leavesLoop(body *ast.BlockStmt) bool {
	declared, targets := map[string]bool{}, []string{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.LabeledStmt:
			declared[n.Label.Name] = true
		case *ast.BranchStmt:
			if n.Label != nil && n.Tok != token.CONTINUE {
				targets = append(targets, n.Label.Name)
			}
		}
		return true
	})
	for _, l := range targets {
		if !declared[l] {
			return true
		}
	}
	leaves := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			leaves = leaves || (n.Tok == token.BREAK && n.Label == nil)
		}
		return true
	})
	return leaves
}

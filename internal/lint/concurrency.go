package lint

import (
	"go/ast"
	"go/token"
)

// checkConcurrency flags goroutine launches and channel machinery inside
// model packages. The simulator is single-threaded by design: event order is
// the determinism contract's backbone, and a goroutine or channel anywhere
// in the model makes event order scheduler-dependent. (sync.Mutex guarding
// host-facing output is fine; spawning is not.)
func checkConcurrency(mod *Module, cfg *Config) []Diagnostic {
	var diags []Diagnostic
	for _, p := range mod.Sorted() {
		if !cfg.isModel(mod.Path, p.Path) {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					diags = append(diags, Diagnostic{
						Pos: mod.Fset.Position(n.Pos()), Rule: "concurrency",
						Message: "model code launches a goroutine; the simulator is single-threaded and event-ordered",
					})
				case *ast.SendStmt:
					diags = append(diags, Diagnostic{
						Pos: mod.Fset.Position(n.Pos()), Rule: "concurrency",
						Message: "model code sends on a channel; use the event engine, not channels",
					})
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						diags = append(diags, Diagnostic{
							Pos: mod.Fset.Position(n.Pos()), Rule: "concurrency",
							Message: "model code receives from a channel; use the event engine, not channels",
						})
					}
				case *ast.SelectStmt:
					diags = append(diags, Diagnostic{
						Pos: mod.Fset.Position(n.Pos()), Rule: "concurrency",
						Message: "model code uses select; use the event engine, not channels",
					})
				case *ast.ChanType:
					diags = append(diags, Diagnostic{
						Pos: mod.Fset.Position(n.Pos()), Rule: "concurrency",
						Message: "model code declares a channel type; use the event engine, not channels",
					})
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
						if obj := p.Info.Uses[id]; obj != nil && obj.Pkg() == nil {
							// Builtin close: only valid on channels.
							diags = append(diags, Diagnostic{
								Pos: mod.Fset.Position(n.Pos()), Rule: "concurrency",
								Message: "model code closes a channel; use the event engine, not channels",
							})
						}
					}
				}
				return true
			})
		}
	}
	return diags
}

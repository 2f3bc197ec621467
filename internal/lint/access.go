package lint

import (
	"go/ast"
	"go/types"
)

// accesses is the module-wide field-access index the state-coverage rule
// reads. A field is mutated by a selector assignment, a compound assignment
// or ++/--, or an element store through it (c.tags[i] = v); a whole-struct
// store through a pointer (*v = T{…}) mutates every field of the type.
type accesses struct {
	readsBy      map[*cgNode]map[fieldKey]bool
	wholeWritten map[*types.TypeName]bool
	mutFields    map[fieldKey]bool
}

type accCollector struct {
	cg  *callGraph
	acc *accesses
	// skip marks selector nodes consumed as write targets so the read sweep
	// does not double-count them.
	skip map[ast.Expr]bool
}

// collectAccesses walks every function body and records field writes and
// reads, attributed to the call-graph node they occur in.
func collectAccesses(mod *Module, cg *callGraph) *accesses {
	c := &accCollector{
		cg: cg,
		acc: &accesses{
			readsBy:      map[*cgNode]map[fieldKey]bool{},
			wholeWritten: map[*types.TypeName]bool{},
			mutFields:    map[fieldKey]bool{},
		},
		skip: map[ast.Expr]bool{},
	}
	for _, p := range mod.Sorted() {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				c.walkBody(p, cg.byFunc[fn], fd.Body)
			}
		}
	}
	return c.acc
}

func (c *accCollector) walkBody(p *Package, root *cgNode, body *ast.BlockStmt) {
	cur := root
	var nodeStack []ast.Node
	var enclStack []*cgNode
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := nodeStack[len(nodeStack)-1]
			nodeStack = nodeStack[:len(nodeStack)-1]
			if _, ok := top.(*ast.FuncLit); ok {
				cur = enclStack[len(enclStack)-1]
				enclStack = enclStack[:len(enclStack)-1]
			}
			return true
		}
		nodeStack = append(nodeStack, n)
		switch x := n.(type) {
		case *ast.FuncLit:
			if ln := c.cg.byLit[x]; ln != nil {
				enclStack = append(enclStack, cur)
				cur = ln
			} else {
				// Literal outside the graph (shouldn't happen for bodies we
				// walk); keep attribution at the encloser.
				enclStack = append(enclStack, cur)
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				c.writeTarget(p, lhs)
			}
		case *ast.IncDecStmt:
			c.writeTarget(p, x.X)
		case *ast.SelectorExpr:
			if c.skip[x] {
				return true
			}
			if tn, fname := structFieldOf(p.Info, x); tn != nil {
				set := c.acc.readsBy[cur]
				if set == nil {
					set = map[fieldKey]bool{}
					c.acc.readsBy[cur] = set
				}
				set[fieldKey{tn, fname}] = true
			}
		}
		return true
	})
}

// writeTarget records the mutation an assignment target denotes, if any.
func (c *accCollector) writeTarget(p *Package, lhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	switch x := lhs.(type) {
	case *ast.SelectorExpr:
		if tn, fname := structFieldOf(p.Info, x); tn != nil {
			c.skip[x] = true
			c.acc.mutFields[fieldKey{tn, fname}] = true
		}
	case *ast.IndexExpr:
		// c.tags[i] = v, possibly nested (c.a[i][j] = v): the mutated state
		// is the field holding the container.
		base := ast.Unparen(x.X)
		for {
			ix, ok := base.(*ast.IndexExpr)
			if !ok {
				break
			}
			base = ast.Unparen(ix.X)
		}
		if sel, ok := base.(*ast.SelectorExpr); ok {
			if tn, fname := structFieldOf(p.Info, sel); tn != nil {
				c.skip[sel] = true
				c.acc.mutFields[fieldKey{tn, fname}] = true
			}
		}
	case *ast.StarExpr:
		// *v = T{…}: a whole-struct store through a pointer.
		if tv, ok := p.Info.Types[x.X]; ok && tv.Type != nil {
			if ptr, ok := tv.Type.Underlying().(*types.Pointer); ok {
				if tn := namedStructOf(ptr.Elem()); tn != nil {
					c.acc.wholeWritten[tn] = true
				}
			}
		}
	}
}

// structFieldOf resolves a selector to (declaring named struct, field name)
// when it denotes a struct field access, else (nil, "").
func structFieldOf(info *types.Info, sel *ast.SelectorExpr) (*types.TypeName, string) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, ""
	}
	if tn := namedStructOf(s.Recv()); tn != nil {
		return tn, s.Obj().Name()
	}
	return nil, ""
}

// namedStructOf dereferences pointers and returns the origin TypeName when
// t is (a pointer to) a named struct type.
func namedStructOf(t types.Type) *types.TypeName {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	return n.Origin().Obj()
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The call graph is the spine of the interprocedural statecover rule.
// Nodes are function declarations and function literals; an edge from a
// node means control can move from it to the target by one of:
//
//   - a static call to a named function or method (generic instantiations
//     are resolved to their origin declaration)
//   - a function literal created inside it
//   - interface dispatch, resolved conservatively to every module type
//     implementing the interface
//   - invocation of a func value; targets come from a flow-insensitive
//     propagation of function values through variables, parameters, and
//     struct fields (the pooled doneFn/forwarder pattern)
type cgNode struct {
	out []*cgNode
}

type callGraph struct {
	byFunc map[*types.Func]*cgNode
	byLit  map[*ast.FuncLit]*cgNode
}

type dynSite struct {
	from *cgNode
	key  types.Object
}

type ifaceSite struct {
	from *cgNode
	m    *types.Func
}

// flowBinding defers "function values flowing into object dst" resolution
// until every literal has a node.
type flowBinding struct {
	p   *Package
	dst types.Object
	src ast.Expr
}

type cgBuilder struct {
	mod        *Module
	g          *callGraph
	flow       map[types.Object]map[*cgNode]bool
	copies     map[types.Object]map[types.Object]bool
	bindings   []flowBinding
	dyn        []dynSite
	ifaceSites []ifaceSite
}

// buildCallGraph constructs the module call graph.
func buildCallGraph(mod *Module) *callGraph {
	b := &cgBuilder{
		mod:    mod,
		g:      &callGraph{byFunc: map[*types.Func]*cgNode{}, byLit: map[*ast.FuncLit]*cgNode{}},
		flow:   map[types.Object]map[*cgNode]bool{},
		copies: map[types.Object]map[types.Object]bool{},
	}
	// Pass 1: nodes for every function declaration with a body.
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
				b.g.byFunc[fn] = &cgNode{}
			}
		}
	}
	// Pass 2: walk bodies — literal nodes, call edges, value flow.
	for _, p := range mod.Sorted() {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					if fn, ok := p.Info.Defs[d.Name].(*types.Func); ok {
						b.walkFunc(p, b.g.byFunc[fn], d.Body)
					}
				case *ast.GenDecl:
					// Package-level var initializers contribute to value
					// flow (func-typed tables) but have no node of their
					// own.
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok || len(vs.Names) != len(vs.Values) {
							continue
						}
						for i, nm := range vs.Names {
							if obj := p.Info.Defs[nm]; obj != nil {
								b.bindings = append(b.bindings, flowBinding{p, obj, vs.Values[i]})
							}
						}
					}
				}
			}
		}
	}
	b.resolveBindings()
	b.fixpoint()
	for _, site := range b.dyn {
		for to := range b.flow[site.key] {
			site.from.out = append(site.from.out, to)
		}
	}
	b.resolveIfaces()
	return b.g
}

// walkFunc visits one declared function body, tracking the innermost
// enclosing node as literals open and close (ast.Inspect signals subtree
// exit with a nil node).
func (b *cgBuilder) walkFunc(p *Package, root *cgNode, body *ast.BlockStmt) {
	if root == nil {
		return
	}
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
			ln := &cgNode{}
			b.g.byLit[x] = ln
			cur.out = append(cur.out, ln)
			enclStack = append(enclStack, cur)
			cur = ln
		case *ast.CallExpr:
			b.visitCall(p, cur, x)
		case *ast.AssignStmt:
			if (x.Tok == token.ASSIGN || x.Tok == token.DEFINE) && len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					if dst := lhsObj(p.Info, x.Lhs[i]); dst != nil {
						b.bindings = append(b.bindings, flowBinding{p, dst, x.Rhs[i]})
					}
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i, nm := range x.Names {
					if obj := p.Info.Defs[nm]; obj != nil {
						b.bindings = append(b.bindings, flowBinding{p, obj, x.Values[i]})
					}
				}
			}
		case *ast.CompositeLit:
			b.visitComposite(p, x)
		}
		return true
	})
}

// lhsObj resolves an assignment target to the object function values flow
// into: a variable, or a struct field.
func lhsObj(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Defs[x]; obj != nil {
			return obj
		}
		return info.Uses[x]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
		return info.Uses[x.Sel]
	}
	return nil
}

// visitCall classifies one call expression: builtin, conversion, static,
// interface dispatch, or a dynamic func-value invocation.
func (b *cgBuilder) visitCall(p *Package, cur *cgNode, call *ast.CallExpr) {
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation F[T](…).
	base := fun
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		base = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		base = ast.Unparen(ix.X)
	}
	var obj types.Object
	switch f := base.(type) {
	case *ast.Ident:
		obj = p.Info.Uses[f]
		if obj == nil {
			obj = p.Info.Defs[f]
		}
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[f]; ok {
			obj = s.Obj()
		} else {
			obj = p.Info.Uses[f.Sel]
		}
	default:
		return // call of a call result etc.: no target information
	}
	switch o := obj.(type) {
	case *types.Func:
		fn := o.Origin()
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			b.ifaceSites = append(b.ifaceSites, ifaceSite{from: cur, m: fn})
			return
		}
		if to := b.g.byFunc[fn]; to != nil {
			cur.out = append(cur.out, to)
			b.bindArgs(p, sig, call)
		}
	case *types.Var:
		// Func value held in a variable, parameter, or field (base of an
		// indexed func table included).
		b.dyn = append(b.dyn, dynSite{from: cur, key: o})
	}
}

// bindArgs flows call arguments into the callee's parameter objects.
func (b *cgBuilder) bindArgs(p *Package, sig *types.Signature, call *ast.CallExpr) {
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pv *types.Var
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pv = params.At(params.Len() - 1)
		case i < params.Len():
			pv = params.At(i)
		}
		if pv != nil {
			b.bindings = append(b.bindings, flowBinding{p, pv, arg})
		}
	}
}

// visitComposite flows composite-literal elements into struct field objects.
func (b *cgBuilder) visitComposite(p *Package, cl *ast.CompositeLit) {
	tv, ok := p.Info.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				if obj := p.Info.Uses[id]; obj != nil {
					b.bindings = append(b.bindings, flowBinding{p, obj, kv.Value})
				}
			}
			continue
		}
		if i < st.NumFields() {
			b.bindings = append(b.bindings, flowBinding{p, st.Field(i), el})
		}
	}
}

func (b *cgBuilder) addFlow(dst types.Object, n *cgNode) {
	set := b.flow[dst]
	if set == nil {
		set = map[*cgNode]bool{}
		b.flow[dst] = set
	}
	set[n] = true
}

func (b *cgBuilder) addCopy(dst, src types.Object) {
	set := b.copies[dst]
	if set == nil {
		set = map[types.Object]bool{}
		b.copies[dst] = set
	}
	set[src] = true
}

// resolveBindings turns each deferred binding into flow sources or copy
// edges, now that every literal has a node.
func (b *cgBuilder) resolveBindings() {
	for _, bd := range b.bindings {
		b.flowInto(bd.p, bd.dst, bd.src)
	}
}

func (b *cgBuilder) flowInto(p *Package, dst types.Object, e ast.Expr) {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if n := b.g.byLit[x]; n != nil {
			b.addFlow(dst, n)
		}
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		switch o := obj.(type) {
		case *types.Func:
			if n := b.g.byFunc[o.Origin()]; n != nil {
				b.addFlow(dst, n)
			}
		case *types.Var:
			b.addCopy(dst, o)
		}
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[x]; ok {
			switch s.Kind() {
			case types.FieldVal:
				b.addCopy(dst, s.Obj())
			case types.MethodVal:
				if fn, ok := s.Obj().(*types.Func); ok {
					if n := b.g.byFunc[fn.Origin()]; n != nil {
						b.addFlow(dst, n)
					}
				}
			}
			return
		}
		switch o := p.Info.Uses[x.Sel].(type) {
		case *types.Func:
			if n := b.g.byFunc[o.Origin()]; n != nil {
				b.addFlow(dst, n)
			}
		case *types.Var:
			b.addCopy(dst, o)
		}
	case *ast.CallExpr:
		// append(slice, fn…) keeps flowing into the slice's object.
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if bi, ok := p.Info.Uses[id].(*types.Builtin); ok && bi.Name() == "append" {
				for _, a := range x.Args {
					b.flowInto(p, dst, a)
				}
			}
		}
	}
}

// fixpoint propagates flow sets along copy edges until stable.
func (b *cgBuilder) fixpoint() {
	for changed := true; changed; {
		changed = false
		for dst, srcs := range b.copies {
			for src := range srcs {
				for n := range b.flow[src] {
					if !b.flow[dst][n] {
						b.addFlow(dst, n)
						changed = true
					}
				}
			}
		}
	}
}

// resolveIfaces connects each interface dispatch site to every module type
// that implements the interface — the conservative fallback when the
// concrete type is not statically known.
func (b *cgBuilder) resolveIfaces() {
	if len(b.ifaceSites) == 0 {
		return
	}
	var concrete []*types.TypeName
	for _, p := range b.mod.Sorted() {
		if p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
				continue
			}
			concrete = append(concrete, tn)
		}
	}
	for _, site := range b.ifaceSites {
		sig, ok := site.m.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, tn := range concrete {
			T := tn.Type()
			if !types.Implements(T, iface) && !types.Implements(types.NewPointer(T), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(T, true, tn.Pkg(), site.m.Name())
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if n := b.g.byFunc[fn.Origin()]; n != nil {
				site.from.out = append(site.from.out, n)
			}
		}
	}
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// State-coverage annotation grammar (DESIGN.md "State coverage"):
//
//	//nomad:ephemeral <reason>                on a struct or field doc comment
//
// ephemeral marks state that deliberately stays outside digest coverage.
const ephMarker = "//nomad:ephemeral"

// fieldKey identifies a struct field by its declaring (origin) type and
// name, stable across generic instantiations.
type fieldKey struct {
	tn   *types.TypeName
	name string
}

type fieldInfo struct {
	name  string
	pos   token.Position
	ftype types.Type
}

type structInfo struct {
	tn     *types.TypeName
	pkg    *Package
	fields []fieldInfo
}

// annotations is the parsed annotation state of a module plus the struct
// catalog statecover walks.
type annotations struct {
	ephType  map[*types.TypeName]bool
	ephField map[fieldKey]bool
	// pooled mirrors poolalloc's doc-marker convention at the type level:
	// pooled carriers are exempt from state coverage.
	pooled  map[*types.TypeName]bool
	structs []structInfo
	diags   []Diagnostic
}

// cutMarker returns the text after marker when c is that directive (the
// marker must end at a word boundary, so //nomad:ephemerality is not the
// ephemeral directive).
func cutMarker(text, marker string) (string, bool) {
	if text == marker {
		return "", true
	}
	if rest, ok := strings.CutPrefix(text, marker); ok && (rest[0] == ' ' || rest[0] == '\t') {
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// parseAnnotations scans every doc comment in the module for ephemeral
// annotations and catalogs every struct type. Grammar violations and
// misplaced annotations are diagnosed under the statecover rule.
func parseAnnotations(mod *Module) *annotations {
	ann := &annotations{
		ephType:  map[*types.TypeName]bool{},
		ephField: map[fieldKey]bool{},
		pooled:   map[*types.TypeName]bool{},
	}
	for _, p := range mod.Sorted() {
		for _, f := range p.Files {
			consumed := map[*ast.Comment]bool{}
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.GenDecl)
				if !ok || d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						ann.scanTypeSpec(mod, p, d, ts, consumed)
					}
				}
			}
			// Any marker not consumed by a declaration scan sits somewhere
			// the annotation has no meaning (on a function, inside a body,
			// on a var, …).
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !consumed[c] && isMarker(c.Text, ephMarker) {
						ann.bad(mod.Fset.Position(c.Pos()), "//nomad:ephemeral belongs on a struct or field doc comment")
					}
				}
			}
		}
	}
	return ann
}

func isMarker(text, marker string) bool {
	_, ok := cutMarker(text, marker)
	return ok
}

func (a *annotations) bad(pos token.Position, msg string) {
	a.diags = append(a.diags, Diagnostic{Pos: pos, Rule: "statecover", Message: msg})
}

func (a *annotations) scanTypeSpec(mod *Module, p *Package, gd *ast.GenDecl, ts *ast.TypeSpec, consumed map[*ast.Comment]bool) {
	doc := ts.Doc
	if doc == nil {
		doc = gd.Doc
	}
	st, isStruct := ts.Type.(*ast.StructType)
	tn, _ := p.Info.Defs[ts.Name].(*types.TypeName)
	if doc != nil {
		for _, c := range doc.List {
			rest, ok := cutMarker(c.Text, ephMarker)
			if !ok {
				continue
			}
			consumed[c] = true
			pos := mod.Fset.Position(c.Pos())
			switch {
			case !isStruct || tn == nil:
				a.bad(pos, "//nomad:ephemeral belongs on a struct or field declaration")
			case rest == "":
				a.bad(pos, "//nomad:ephemeral needs a reason: //nomad:ephemeral <why this state may escape digests>")
			default:
				a.ephType[tn] = true
			}
		}
	}
	if !isStruct || tn == nil {
		return
	}
	if doc != nil && pooledDocMarker.MatchString(doc.Text()) {
		a.pooled[tn] = true
	}
	si := structInfo{tn: tn, pkg: p}
	for _, fl := range st.Fields.List {
		eph := a.scanFieldComments(mod, fl, consumed)
		for _, nm := range fl.Names {
			var ft types.Type
			if v, ok := p.Info.Defs[nm].(*types.Var); ok {
				ft = v.Type()
			}
			si.fields = append(si.fields, fieldInfo{name: nm.Name, pos: mod.Fset.Position(nm.Pos()), ftype: ft})
			if eph {
				a.ephField[fieldKey{tn, nm.Name}] = true
			}
		}
	}
	a.structs = append(a.structs, si)
}

// scanFieldComments handles //nomad:ephemeral on a field's doc or trailing
// line comment.
func (a *annotations) scanFieldComments(mod *Module, fl *ast.Field, consumed map[*ast.Comment]bool) bool {
	eph := false
	for _, grp := range []*ast.CommentGroup{fl.Doc, fl.Comment} {
		if grp == nil {
			continue
		}
		for _, c := range grp.List {
			rest, ok := cutMarker(c.Text, ephMarker)
			if !ok {
				continue
			}
			consumed[c] = true
			if rest == "" {
				a.bad(mod.Fset.Position(c.Pos()), "//nomad:ephemeral needs a reason: //nomad:ephemeral <why this state may escape digests>")
			} else {
				eph = true
			}
		}
	}
	return eph
}

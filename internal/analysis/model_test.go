package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"testing"
)

const vtimePath = "rakis/internal/vtime"

// TestEveryModelFieldIsRead is the cost-model twin of telemetry's
// TestEveryCounterIsCarriedEverywhere: every vtime.Model field must be
// read by non-test code outside internal/vtime, either directly or
// through a Model method that such code calls (LinkGbps reaches the wire
// only through WireCycles). A declared cost that nothing reads is charged
// nowhere, and the path it models is free in virtual time. A field that
// is only assigned (an experiment overriding a cost) does not count.
func TestEveryModelFieldIsRead(t *testing.T) {
	world, err := sharedWorld()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	vt := world.Packages[vtimePath]
	if vt == nil {
		t.Fatalf("package %s not loaded", vtimePath)
	}
	obj := vt.Types.Scope().Lookup("Model")
	if obj == nil {
		t.Fatal("vtime.Model not found")
	}
	model := obj.Type()
	st := model.Underlying().(*types.Struct)

	// uses maps each Model field or method to the fields and methods
	// reached from it; read collects what code outside vtime reaches.
	uses := make(map[types.Object][]types.Object)
	read := make(map[types.Object]bool)
	for path, pkg := range world.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var method types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok && path == vtimePath && fd.Recv != nil {
					if m := pkg.Info.Defs[fd.Name]; m != nil && isModelMember(m, model) {
						method = m
					}
				}
				if path == vtimePath && method == nil {
					continue
				}
				for _, member := range modelReads(pkg.Info, decl, model) {
					if method != nil {
						uses[method] = append(uses[method], member)
					} else {
						read[member] = true
					}
				}
			}
		}
	}
	// Close over methods: a field read by a method that outside code
	// calls is read.
	for changed := true; changed; {
		changed = false
		for m, reached := range uses {
			if !read[m] {
				continue
			}
			for _, r := range reached {
				if !read[r] {
					read[r], changed = true, true
				}
			}
		}
	}
	var unread []string
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); !read[f] {
			unread = append(unread, f.Name())
		}
	}
	sort.Strings(unread)
	for _, name := range unread {
		t.Errorf("vtime.Model.%s is read by no non-test code outside %s: the cost it declares is charged nowhere", name, vtimePath)
	}
}

// modelReads returns the Model fields and methods that decl selects,
// leaving out fields that are only the target of an assignment.
func modelReads(info *types.Info, decl ast.Decl, model types.Type) []types.Object {
	written := make(map[*ast.SelectorExpr]bool)
	var out []types.Object
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					written[sel] = true
				}
			}
		case *ast.SelectorExpr:
			if written[n] {
				return true
			}
			if sel := info.Selections[n]; sel != nil && isModelMember(sel.Obj(), model) {
				out = append(out, sel.Obj())
			}
		}
		return true
	})
	return out
}

// isModelMember reports whether obj is a field or method of vtime.Model.
func isModelMember(obj types.Object, model types.Type) bool {
	switch obj := obj.(type) {
	case *types.Var:
		if !obj.IsField() || obj.Pkg() == nil || obj.Pkg().Path() != vtimePath {
			return false
		}
		st := model.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == obj {
				return true
			}
		}
	case *types.Func:
		recv := obj.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return types.Identical(t, model)
	}
	return false
}

package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Role is a package's position in the RAKIS trust model.
type Role uint8

const (
	// RoleNone marks packages outside the role discipline: dual-role
	// infrastructure (mem, ring, tm run code on both sides of the
	// boundary), tooling, and examples.
	RoleNone Role = iota
	// RoleEnclave marks trusted in-enclave code (the TCB): the FastPath
	// Modules, the Service Module, and the in-enclave stack.
	RoleEnclave
	// RoleHost marks untrusted host code: the simulated kernel and the
	// Monitor Module.
	RoleHost
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleEnclave:
		return "enclave"
	case RoleHost:
		return "host"
	default:
		return "none"
	}
}

// builtinRoles is the fallback classification for packages predating the
// //rakis:role directive. The directive, when present, wins.
var builtinRoles = map[string]Role{
	"rakis/internal/fm":       RoleEnclave,
	"rakis/internal/sm":       RoleEnclave,
	"rakis/internal/netstack": RoleEnclave,
	"rakis/internal/xsk":      RoleEnclave,
	"rakis/internal/iouring":  RoleEnclave,
	"rakis/internal/umem":     RoleEnclave,
	"rakis/internal/hostos":   RoleHost,
	"rakis/internal/mm":       RoleHost,
}

// directiveLines yields every //rakis: directive line in a comment group.
func directiveLines(g *ast.CommentGroup) []string {
	if g == nil {
		return nil
	}
	var out []string
	for _, c := range g.List {
		line := strings.TrimSpace(c.Text)
		if strings.HasPrefix(line, "//rakis:") {
			out = append(out, strings.TrimSpace(strings.TrimPrefix(line, "//")))
		}
	}
	return out
}

// fileRole extracts a //rakis:role directive from any comment in the
// file, conventionally placed in the package documentation.
func fileRole(f *ast.File) (Role, bool) {
	for _, g := range f.Comments {
		for _, d := range directiveLines(g) {
			switch d {
			case "rakis:role enclave":
				return RoleEnclave, true
			case "rakis:role host":
				return RoleHost, true
			}
		}
	}
	return RoleNone, false
}

// packageRole resolves a package's role: directive first, builtin table
// second.
func packageRole(importPath string, files []*ast.File) Role {
	for _, f := range files {
		if r, ok := fileRole(f); ok {
			return r
		}
	}
	return builtinRoles[importPath]
}

// funcAnnotation reports whether a function declaration's doc comment
// carries the given //rakis: directive (e.g. "rakis:validator").
func funcAnnotation(decl *ast.FuncDecl, directive string) bool {
	for _, d := range directiveLines(decl.Doc) {
		if d == directive || strings.HasPrefix(d, directive+" ") {
			return true
		}
	}
	return false
}

// registerAnnotations scans a type-checked package's declarations and
// records annotated functions into the world's registries.
func (w *World) registerAnnotations(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if funcAnnotation(fd, "rakis:validator") {
				w.Validators[obj] = true
			}
			if funcAnnotation(fd, "rakis:untrusted") {
				w.Untrusted[obj] = true
			}
			if funcAnnotation(fd, "rakis:boundary-ok") {
				w.BoundaryOK[obj] = true
			}
			if funcAnnotation(fd, "rakis:snapshot") {
				w.Snapshots[obj] = true
			}
			if funcAnnotation(fd, "rakis:singleread-ok") {
				w.SingleReadOK[obj] = true
			}
		}
	}
}

// memObject looks up a named object in rakis/internal/mem, or nil when
// the package is not loaded.
func (w *World) memObject(name string) types.Object {
	mem := w.Packages["rakis/internal/mem"]
	if mem == nil || mem.Types == nil {
		return nil
	}
	return mem.Types.Scope().Lookup(name)
}

// memAddrType returns the mem.Addr named type, or nil.
func (w *World) memAddrType() types.Type {
	obj := w.memObject("Addr")
	if obj == nil {
		return nil
	}
	return obj.Type()
}

// isMemSpaceMethod reports whether fn is the named method on
// *mem.Space (or mem.Space).
func (w *World) isMemSpaceMethod(fn *types.Func, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "rakis/internal/mem" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Space" {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return len(names) == 0
}

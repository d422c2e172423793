package framework

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// FuncNode is one function (or method) declared in a loaded package,
// together with its statically resolved call edges. Function literals are
// folded into their enclosing declaration: a closure's body — its callees
// and its allocation sites — belongs to the function that creates it.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Callees are the resolved outgoing edges in first-appearance order:
	// direct calls to module functions, concrete method calls, and — for
	// calls through an interface method — every module type's
	// implementation of that method (class-hierarchy analysis). Calls of
	// plain func values (stored callbacks) are not resolvable and carry no
	// edge; the vet contract handles those by annotating the callback
	// bodies themselves.
	Callees []*types.Func
}

// CallGraph is the module-wide static call graph over every function
// declared in the loaded packages. Edges into the standard library are
// dropped (those bodies are not loaded); edges across loaded packages are
// kept, which is the point.
type CallGraph struct {
	// Nodes maps each declared function to its node.
	Nodes map[*types.Func]*FuncNode
	// Funcs holds the same nodes in package, file and declaration order.
	Funcs []*FuncNode
}

// BuildCallGraph constructs the call graph for the loaded package set.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*FuncNode)}

	// Every named non-interface type of the module, sorted by (package
	// path, name) so class-hierarchy expansion is deterministic.
	var concrete []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			concrete = append(concrete, named)
		}
	}
	sort.Slice(concrete, func(i, j int) bool {
		pi, pj := concrete[i].Obj().Pkg().Path(), concrete[j].Obj().Pkg().Path()
		if pi != pj {
			return pi < pj
		}
		return concrete[i].Obj().Name() < concrete[j].Obj().Name()
	})

	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				seen := map[*types.Func]bool{}
				add := func(callee *types.Func) {
					if callee != nil && !seen[callee] {
						seen[callee] = true
						node.Callees = append(node.Callees, callee)
					}
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := CalleeOf(pkg.Info, call)
					if callee == nil {
						return true
					}
					if iface := interfaceReceiver(callee); iface != nil {
						for _, impl := range implementations(concrete, iface, callee.Name()) {
							add(impl)
						}
						return true
					}
					add(callee)
					return true
				})
				g.Nodes[fn] = node
				g.Funcs = append(g.Funcs, node)
			}
		}
	}
	return g
}

// CalleeOf resolves a call expression to the *types.Func it invokes, or
// nil for calls of func values, conversions, and builtins.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// interfaceReceiver returns the interface type a method is declared on, or
// nil for package functions and concrete methods.
func interfaceReceiver(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// implementations finds, for an interface-method call, every module type's
// concrete method that the dynamic dispatch could reach.
func implementations(concrete []*types.Named, iface *types.Interface, method string) []*types.Func {
	var out []*types.Func
	for _, named := range concrete {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		sel := types.NewMethodSet(ptr).Lookup(named.Obj().Pkg(), method)
		if sel == nil {
			// Exported interface method implemented from another package.
			sel = types.NewMethodSet(ptr).Lookup(nil, method)
		}
		if sel == nil {
			continue
		}
		if fn, ok := sel.Obj().(*types.Func); ok {
			out = append(out, fn)
		}
	}
	return out
}

// FuncAnnotated reports whether decl carries the given //marker comment
// ("vprobe:hotpath") in its doc comment. Markers follow Go's directive
// convention: the comment starts exactly with //marker, optionally
// followed by free text after a space.
func FuncAnnotated(decl *ast.FuncDecl, marker string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

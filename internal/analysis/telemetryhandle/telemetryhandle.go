// Package telemetryhandle machine-checks the pre-bound telemetry handle
// pattern (DESIGN.md §7, §13): hot-path code never does a map lookup or a
// registry call per event — it dereferences handles (*telemetry.Counter,
// *telemetry.Gauge, *telemetry.Histogram) pre-bound into a handle-set
// struct at attach time, and because telemetry is optional the handle set
// pointer may be nil. Every hot-path dereference of a handle field
// through a possibly-nil handle-set pointer must therefore sit under a
// syntactic nil guard of that same pointer:
//
//	if v.Tele != nil {
//	        v.Tele.Dispatches.Inc()
//	}
//
// or behind an early return (`if v.Tele == nil { return }`). The check
// runs only over functions reachable from //vprobe:hotpath roots, the set
// hotpath.Reach walks — cold paths (attach, export, tests) construct their
// handle sets locally and are free to assume them non-nil. Waive a site
// where the surrounding code guarantees binding with
// `//vet:handle <reason>`.
package telemetryhandle

import (
	"go/ast"
	"go/token"
	"go/types"

	"vprobe/internal/analysis/framework"
	"vprobe/internal/analysis/hotpath"
)

// Analyzer is the nil-guarded pre-bound handle check.
var Analyzer = &framework.ModuleAnalyzer{
	Name: "telemetryhandle",
	Doc: "require hot-path telemetry handle dereferences to sit under a nil " +
		"guard of the handle-set pointer (suppress with //vet:handle <reason>)",
	Run:        run,
	Directives: []string{"handle"},
}

func run(pass *framework.ModulePass) (any, error) {
	handleTypes := findHandleTypes(pass)
	if len(handleTypes) == 0 {
		return nil, nil
	}
	handleSets := findHandleSets(pass, handleTypes)
	if len(handleSets) == 0 {
		return nil, nil
	}

	for _, h := range hotpath.Reach(pass.Pkgs) {
		if h.Pkg.Types.Name() == "telemetry" || recvIsHandleSet(h.Fn, handleSets) {
			continue // the handle implementation; attach/bind methods on the handle set
		}
		checkBody(pass, h.Pkg, h.Decl, handleSets)
	}
	return nil, nil
}

// findHandleTypes collects the named handle value types: Counter, Gauge,
// Histogram, and the span Tracer declared in any loaded package named
// "telemetry". The Tracer counts as a handle: hot-reachable code must
// reach it through a pre-bound, nil-guarded handle set (cluster's span
// recorder), never via a map or registry lookup.
func findHandleTypes(pass *framework.ModulePass) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, pkg := range pass.Pkgs {
		if pkg.Types.Name() != "telemetry" {
			continue
		}
		for _, name := range []string{"Counter", "Gauge", "Histogram", "Tracer"} {
			if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok {
				out[tn] = true
			}
		}
	}
	return out
}

// findHandleSets collects every named struct type with at least one field
// that is a pointer to a handle type — the pre-bound handle sets.
func findHandleSets(pass *framework.ModulePass, handleTypes map[*types.TypeName]bool) map[*types.Named]bool {
	out := map[*types.Named]bool{}
	for _, pkg := range pass.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if isHandlePtr(st.Field(i).Type(), handleTypes) {
					out[named] = true
					break
				}
			}
		}
	}
	return out
}

func isHandlePtr(t types.Type, handleTypes map[*types.TypeName]bool) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && handleTypes[named.Obj()]
}

// handleSetPtr reports whether t is a pointer to a handle-set struct.
func handleSetPtr(t types.Type, sets map[*types.Named]bool) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && sets[named]
}

func recvIsHandleSet(fn *types.Func, sets map[*types.Named]bool) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && sets[named]
}

// guard is one syntactic nil check of a base expression: uses of the same
// base within span are considered guarded.
type guard struct {
	base string
	lo   token.Pos
	hi   token.Pos
}

// checkBody flags handle-field selections through a possibly-nil
// handle-set pointer that no guard covers.
func checkBody(pass *framework.ModulePass, pkg *framework.Package, fd *ast.FuncDecl,
	sets map[*types.Named]bool) {
	var guards []guard
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		for _, base := range nilCheckedBases(pkg, ifs.Cond, token.NEQ) {
			guards = append(guards, guard{base: base, lo: ifs.Body.Pos(), hi: ifs.Body.End()})
		}
		if terminates(ifs.Body) {
			for _, base := range nilCheckedBases(pkg, ifs.Cond, token.EQL) {
				guards = append(guards, guard{base: base, lo: ifs.End(), hi: fd.Body.End()})
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		baseType := pkg.Info.TypeOf(sel.X)
		if baseType == nil || !handleSetPtr(baseType, sets) {
			return true
		}
		base := types.ExprString(sel.X)
		for _, g := range guards {
			if g.base == base && sel.Pos() >= g.lo && sel.Pos() < g.hi {
				return true
			}
		}
		if d, ok := pass.Suppression(sel.Pos(), "handle"); ok {
			if d.Reason == "" {
				pass.Reportf(sel.Pos(), "//vet:handle requires a written reason")
			}
			return true
		}
		pass.Reportf(sel.Pos(), "telemetry handle field %s read through possibly-nil %s "+
			"on the hot path; guard with `if %s != nil` (pre-bound handle pattern)",
			sel.Sel.Name, base, base)
		return true
	})
}

// nilCheckedBases extracts from a condition the expressions compared
// against nil with the given operator, descending through && conjuncts.
func nilCheckedBases(pkg *framework.Package, cond ast.Expr, op token.Token) []string {
	var out []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		be, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		if be.Op == token.LAND {
			walk(be.X)
			walk(be.Y)
			return
		}
		if be.Op != op {
			return
		}
		if isNil(pkg, be.Y) {
			out = append(out, types.ExprString(be.X))
		} else if isNil(pkg, be.X) {
			out = append(out, types.ExprString(be.Y))
		}
	}
	walk(cond)
	return out
}

func isNil(pkg *framework.Package, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := pkg.Info.Uses[id].(*types.Nil)
	return isNilObj || id.Name == "nil"
}

// terminates reports whether a block's last statement unconditionally
// leaves the enclosing flow (return, panic, continue, break, goto).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// Package hotpath enforces the allocation-free quantum contract at compile
// time. Functions annotated `//vprobe:hotpath` (the quantum roots: the
// xen dispatch/quantum-end/account/wake callbacks, the sim engine loop,
// the perf/mem evaluation kernels, Algorithm 1's partition pass, and the
// cluster numa admission path) become roots of a reachability walk over
// the module-wide call graph — including calls made through interfaces,
// resolved to every module implementation — and every reached function is
// checked from both sides. The walk is Reach; the telemetryhandle
// analyzer checks the same reached set.
//
// The source side: any allocating construct in a reached body is a
// diagnostic:
//
//   - append (may grow its backing array)
//   - make / new / map and slice literals / &composite literals
//   - fmt.* calls
//   - string concatenation and string<->[]byte/[]rune conversions
//   - closure creation (func literals)
//   - interface boxing: non-pointer-shaped values converted to interface
//     types at call arguments or assignments, and variadic interface
//     calls (the argument slice itself allocates)
//
// The compiler side: the packages the walk reached are compiled with
// -gcflags=<module>/...=-m, and every "escapes to heap" or "moved to
// heap" site inside a reached declaration (its signature included) is a
// diagnostic too. A site the compiler places at an inlined call belongs to
// the caller.
//
// Sites inside a panic() argument are exempt (a crash path is not the
// steady state). Everything else must carry an explicit, written
// justification: `//vet:alloc <reason>` on the site's line or the line
// above, or on or above the first line of the innermost statement
// enclosing the site (the compiler may place a site on a continuation
// line of a multi-line call). A bare `//vet:alloc` with no reason is
// itself a diagnostic — the contract requires the why, not just the
// waiver — and so is a `//vet:alloc` that covers no site at all. The
// runtime guardrail (TestQuantumSteadyStateZeroAlloc) catches regressions
// that execute; this analyzer catches the ones hiding in rarely-taken
// branches.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"vprobe/internal/analysis/framework"
)

// Marker is the annotation that makes a function a hot-path root.
const Marker = "vprobe:hotpath"

// Analyzer is the hot-path allocation check.
var Analyzer = &framework.ModuleAnalyzer{
	Name: "hotpath",
	Doc: "flag allocating constructs and compiler escape sites reachable from " +
		"//vprobe:hotpath roots (suppress with //vet:alloc <reason>; the reason is required)",
	Run:        run,
	Directives: []string{"alloc"},
}

// Reached is one function the hot-path walk reached, with the root that
// first reached it.
type Reached struct {
	*framework.FuncNode
	Root *types.Func
}

// Reach is the hot-path walk both hotpath and telemetryhandle check: a
// breadth-first walk over the module call graph from the //vprobe:hotpath
// roots, taken in package, file and declaration order. It returns every
// reached function declared in pkgs, in that order, each mapped to the
// first root that reached it.
func Reach(pkgs []*framework.Package) []Reached {
	g := framework.BuildCallGraph(pkgs)
	rootOf := map[*types.Func]*types.Func{}
	var queue []*framework.FuncNode
	for _, node := range g.Funcs {
		if framework.FuncAnnotated(node.Decl, Marker) {
			rootOf[node.Fn] = node.Fn
			queue = append(queue, node)
		}
	}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		for _, callee := range node.Callees {
			next := g.Nodes[callee] // nil outside the loaded set (stdlib)
			if _, seen := rootOf[callee]; seen || next == nil {
				continue
			}
			rootOf[callee] = rootOf[node.Fn]
			queue = append(queue, next)
		}
	}
	var out []Reached
	for _, node := range g.Funcs {
		if root, ok := rootOf[node.Fn]; ok {
			out = append(out, Reached{FuncNode: node, Root: root})
		}
	}
	return out
}

func run(pass *framework.ModulePass) (any, error) {
	hot := Reach(pass.Pkgs)
	// The packages that hold a reached declaration: the compiler half
	// builds only those.
	var hotPkgs []*framework.Package
	for _, h := range hot {
		if len(hotPkgs) == 0 || hotPkgs[len(hotPkgs)-1] != h.Pkg {
			hotPkgs = append(hotPkgs, h.Pkg)
		}
	}
	found, err := compilerSites(hotPkgs)
	if err != nil {
		return nil, err
	}
	sites := siteIndex(pass.Fset, hot, found)

	used := map[token.Pos]bool{}
	for _, h := range hot {
		s := &scanner{pass: pass, info: h.Pkg.Info, body: h.Decl.Body,
			fn: h.Fn, root: h.Root, used: used}
		s.scan()
		for _, site := range sites[h.FuncNode] {
			s.report(site.pos, "escape analysis: "+site.msg)
		}
	}

	// A waiver no construct or escape site consulted waives nothing.
	for _, d := range pass.Directives("alloc") {
		if !used[d.Pos] {
			pass.Reportf(d.Pos, "//vet:alloc waives nothing: no allocating construct or "+
				"escape site reachable from a //vprobe:hotpath root is on its line, the next, "+
				"or a statement starting there; delete it")
		}
	}
	return nil, nil
}

// hotSite is a compiler escape site placed in a reachable declaration.
type hotSite struct {
	pos token.Pos
	msg string
}

// siteIndex keeps the escape sites that fall inside a reachable
// declaration, signature included (a parameter moved to the heap
// allocates on every call), grouped by that declaration. A function
// literal's sites belong to its enclosing declaration, as its callees do.
func siteIndex(fset *token.FileSet, hot []Reached, sites []escapeSite) map[*framework.FuncNode][]hotSite {
	byFile := map[string][]*framework.FuncNode{}
	for _, h := range hot {
		name := fset.File(h.Decl.Pos()).Name()
		byFile[name] = append(byFile[name], h.FuncNode)
	}
	out := map[*framework.FuncNode][]hotSite{}
	for _, site := range sites {
		nodes := byFile[site.file]
		if len(nodes) == 0 {
			continue
		}
		tf := fset.File(nodes[0].Decl.Pos())
		if site.line < 1 || site.line > tf.LineCount() {
			continue
		}
		pos := tf.LineStart(site.line) + token.Pos(site.col-1)
		for _, node := range nodes {
			if node.Decl.Pos() <= pos && pos < node.Decl.End() {
				out[node] = append(out[node], hotSite{pos: pos, msg: site.msg})
				break
			}
		}
	}
	return out
}

// scanner walks one reachable function body and reports allocating
// constructs and escape sites.
type scanner struct {
	pass *framework.ModulePass
	info *types.Info
	body *ast.BlockStmt
	fn   *types.Func
	root *types.Func
	// used collects the //vet:alloc directives that covered a site.
	used map[token.Pos]bool
	// panicSpans are the argument ranges of panic() calls: allocation on a
	// crash path is exempt.
	panicSpans []span
}

type span struct{ lo, hi token.Pos }

func (s *scanner) scan() {
	ast.Inspect(s.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := s.info.ObjectOf(id).(*types.Builtin); ok && b.Name() == "panic" {
				s.panicSpans = append(s.panicSpans, span{call.Pos(), call.End()})
			}
		}
		return true
	})
	ast.Inspect(s.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			s.checkCall(n)
		case *ast.CompositeLit:
			s.checkComposite(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					s.report(n.Pos(), "address-of composite literal may escape to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && s.isString(n) && !s.isConst(n) {
				s.report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			s.checkAssign(n)
		case *ast.ValueSpec:
			s.checkValueSpec(n)
		case *ast.FuncLit:
			s.report(n.Pos(), "closure creation may allocate (captured variables escape)")
		}
		return true
	})
}

// report files one diagnostic unless the site is on a panic path or
// carries a justified //vet:alloc directive.
func (s *scanner) report(pos token.Pos, what string) {
	for _, sp := range s.panicSpans {
		if pos >= sp.lo && pos < sp.hi {
			return
		}
	}
	if d, ok := s.waiver(pos); ok {
		s.used[d.Pos] = true
		if d.Reason == "" {
			s.pass.Reportf(pos, "//vet:alloc requires a written reason (suppressing: %s)", what)
		}
		return
	}
	s.pass.Reportf(pos, "%s in %s, reachable from //vprobe:hotpath root %s; "+
		"justify with //vet:alloc <reason> or move it off the hot path",
		what, shortName(s.fn), shortName(s.root))
}

// waiver returns the //vet:alloc covering pos: on its line or the line
// above, or on or above the first line of the innermost statement
// enclosing pos, so one waiver at a statement's start covers a site the
// compiler places on a continuation line.
func (s *scanner) waiver(pos token.Pos) (framework.Directive, bool) {
	if d, ok := s.pass.Suppression(pos, "alloc"); ok {
		return d, true
	}
	start := token.NoPos
	ast.Inspect(s.body, func(n ast.Node) bool {
		if n == nil || pos < n.Pos() || pos >= n.End() {
			return false
		}
		if _, block := n.(*ast.BlockStmt); !block {
			if _, stmt := n.(ast.Stmt); stmt {
				start = n.Pos()
			}
		}
		return true
	})
	if !start.IsValid() {
		return framework.Directive{}, false
	}
	return s.pass.Suppression(start, "alloc")
}

func (s *scanner) checkCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Conversions: T(x).
	if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() {
		s.checkConversion(call, tv.Type)
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := s.info.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				s.report(call.Pos(), "append may grow its backing array")
			case "make":
				s.report(call.Pos(), "make allocates")
			case "new":
				s.report(call.Pos(), "new allocates")
			}
			return
		}
	}

	// fmt.* — formatting always allocates.
	if fn := framework.CalleeOf(s.info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		s.report(call.Pos(), "fmt."+fn.Name()+" allocates")
		return
	}

	// Interface boxing at the call boundary.
	sig, ok := s.info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if sig.Variadic() && call.Ellipsis == token.NoPos {
		fixed := params.Len() - 1
		elem := params.At(fixed).Type().(*types.Slice).Elem()
		if types.IsInterface(elem) && len(call.Args) > fixed {
			s.report(call.Pos(), "variadic interface call allocates its argument slice")
			return
		}
	}
	for i, arg := range call.Args {
		if i >= params.Len() || (sig.Variadic() && i >= params.Len()-1) {
			break
		}
		if s.boxes(params.At(i).Type(), arg) {
			s.report(arg.Pos(), "interface boxing: non-pointer value converted to interface")
			return
		}
	}
}

func (s *scanner) checkConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := s.info.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	if tv, ok := s.info.Types[call]; ok && tv.Value != nil {
		return // constant conversion, folded at compile time
	}
	switch {
	case isString(to) && (isByteOrRuneSlice(from) || isInteger(from)):
		s.report(call.Pos(), "conversion to string allocates")
	case isByteOrRuneSlice(to) && isString(from):
		s.report(call.Pos(), "string-to-slice conversion allocates")
	case types.IsInterface(to.Underlying()) && !types.IsInterface(from.Underlying()) && !pointerShaped(from):
		s.report(call.Pos(), "interface boxing: non-pointer value converted to interface")
	}
}

func (s *scanner) checkComposite(lit *ast.CompositeLit) {
	t := s.info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		s.report(lit.Pos(), "map literal allocates")
	case *types.Slice:
		s.report(lit.Pos(), "slice literal allocates")
	}
}

func (s *scanner) checkAssign(as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && s.isString(as.Lhs[0]) {
		s.report(as.Pos(), "string concatenation allocates")
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		lt := s.info.TypeOf(lhs)
		if lt == nil {
			continue
		}
		if s.boxes(lt, as.Rhs[i]) {
			s.report(as.Rhs[i].Pos(), "interface boxing: non-pointer value converted to interface")
		}
	}
}

func (s *scanner) checkValueSpec(vs *ast.ValueSpec) {
	if vs.Type == nil {
		return
	}
	dt := s.info.TypeOf(vs.Type)
	if dt == nil {
		return
	}
	for _, v := range vs.Values {
		if s.boxes(dt, v) {
			s.report(v.Pos(), "interface boxing: non-pointer value converted to interface")
		}
	}
}

// boxes reports whether assigning expr to a destination of type dst is an
// allocating interface conversion.
func (s *scanner) boxes(dst types.Type, expr ast.Expr) bool {
	if !types.IsInterface(dst.Underlying()) {
		return false
	}
	et := s.info.TypeOf(expr)
	if et == nil || types.IsInterface(et.Underlying()) || pointerShaped(et) {
		return false
	}
	if tv, ok := s.info.Types[expr]; ok && tv.Value != nil && isString(et) {
		return true // non-empty constant strings still box through a heap header
	}
	return true
}

func (s *scanner) isString(e ast.Expr) bool {
	t := s.info.TypeOf(e)
	return t != nil && isString(t)
}

func (s *scanner) isConst(e ast.Expr) bool {
	tv, ok := s.info.Types[e]
	return ok && tv.Value != nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t fit an interface word without
// allocating: pointers, maps, channels, funcs, unsafe pointers.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

// shortName renders a function as it reads in the source: Partition,
// (*Hypervisor).dispatch, (Dist).CloneInto.
func shortName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	recv := types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return "" })
	// TypeString with an empty qualifier leaves a leading dot for named
	// types ("*.Hypervisor"); strip it.
	out := make([]byte, 0, len(recv))
	for i := 0; i < len(recv); i++ {
		if recv[i] == '.' && (i == 0 || recv[i-1] == '*' || recv[i-1] == '[' || recv[i-1] == ' ') {
			continue
		}
		out = append(out, recv[i])
	}
	return "(" + string(out) + ")." + fn.Name()
}

package framework_test

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vprobe/internal/analysis/framework"
)

// loadTree writes sources into a GOPATH-style tree under a temp dir and
// loads the named packages through a TreeLoader, mirroring how analysistest
// fixtures load.
func loadTree(t *testing.T, sources map[string]string, paths ...string) (*framework.Loader, []*framework.Package) {
	t.Helper()
	root := t.TempDir()
	for rel, src := range sources {
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ld := framework.NewTreeLoader(root)
	var pkgs []*framework.Package
	for _, p := range paths {
		pkg, err := ld.Load(p)
		if err != nil {
			t.Fatalf("Load(%q): %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return ld, pkgs
}

// lineStart returns the position of the first character of a 1-based line.
func lineStart(t *testing.T, pkg *framework.Package, line int) token.Pos {
	t.Helper()
	return pkg.Fset.File(pkg.Files[0].Pos()).LineStart(line)
}

const suppressionSrc = `package s

func f() []int {
	var out []int
	out = append(out, 1) //vet:alloc grows once during warmup
	out = append(out, 2)
	//vet:alloc the preceding-line form
	out = append(out, 3)
	//vet:alloc
	out = append(out, 4)
	//vet:alloc — em-dash separated reason
	out = append(out, 5)
	//vet:alloc two lines above covers nothing

	out = append(out, 6)
	return out
}
`

func TestSuppressionPlacementAndReason(t *testing.T) {
	_, pkgs := loadTree(t, map[string]string{"s/s.go": suppressionSrc}, "s")
	pkg := pkgs[0]
	pass := &framework.Pass{Fset: pkg.Fset, Files: pkg.Files}

	cases := []struct {
		line       int
		name       string
		suppressed bool
		reason     string
	}{
		{5, "alloc", true, "grows once during warmup"}, // same line
		{6, "alloc", true, "grows once during warmup"}, // line 5's directive sits on the line above
		{8, "alloc", true, "the preceding-line form"},  // preceding line
		{10, "alloc", true, ""},                        // bare directive: covered, no reason
		{12, "alloc", true, "em-dash separated reason"},
		{15, "alloc", false, ""},  // directive two lines up with a blank line between
		{5, "ordered", false, ""}, // a different directive name never matches
	}
	for _, c := range cases {
		pos := lineStart(t, pkg, c.line)
		d, ok := pass.Suppression(pos, c.name)
		if ok != c.suppressed {
			t.Errorf("line %d, name %q: suppressed = %v, want %v", c.line, c.name, ok, c.suppressed)
			continue
		}
		if ok && d.Reason != c.reason {
			t.Errorf("line %d: reason = %q, want %q", c.line, d.Reason, c.reason)
		}
		if got := pass.Suppressed(pos, c.name); got != c.suppressed {
			t.Errorf("line %d: Suppressed = %v disagrees with Suppression", c.line, got)
		}
	}

	// Line 6's match comes from the directive on line 5 (same-line form
	// doubles as the preceding-line form for the next statement). Its
	// reason must carry over unchanged.
	if d, ok := pass.Suppression(lineStart(t, pkg, 6), "alloc"); !ok || d.Reason != "grows once during warmup" {
		t.Errorf("line 6: directive = %+v, ok = %v; want line 5's reason", d, ok)
	}
}

func TestDanglingDirectives(t *testing.T) {
	_, pkgs := loadTree(t, map[string]string{"d/d.go": `package d

func g() {
	_ = map[int]int{} //vet:alloc fine, known
	_ = 1             //vet:allocs typo: trailing s
	//vet:retired this analyzer no longer exists
	_ = 2
}
`}, "d")
	pkg := pkgs[0]
	diags := framework.DanglingDirectives(pkg.Fset, pkgs, []string{"alloc", "ordered"})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %+v", len(diags), diags)
	}
	for i, want := range []string{"//vet:allocs", "//vet:retired"} {
		if !strings.Contains(diags[i].Message, want) {
			t.Errorf("diag %d = %q, want mention of %s", i, diags[i].Message, want)
		}
		if !strings.Contains(diags[i].Message, "alloc, ordered") {
			t.Errorf("diag %d = %q, want the sorted known list", i, diags[i].Message)
		}
	}
}

// The call-graph fixture spans two packages: pkg a's Root calls b.Helper
// directly, dispatches through an interface (so class-hierarchy analysis
// must add every implementation), and calls b.Other from inside a closure
// (folded into Root).
var callgraphSrc = map[string]string{
	"b/b.go": `package b

func Helper() int { return 1 }

func Other() int { return 2 }

func Unreached() int { return 3 }
`,
	"a/a.go": `package a

import "b"

type Picker interface{ Pick() int }

type First struct{}

func (First) Pick() int { return b.Other() }

type Second struct{}

func (*Second) Pick() int { return 0 }

func Root(p Picker) int {
	n := b.Helper()
	f := func() int { return b.Other() }
	return n + p.Pick() + f()
}
`,
}

func TestBuildCallGraphCrossPackage(t *testing.T) {
	_, pkgs := loadTree(t, callgraphSrc, "b", "a")
	g := framework.BuildCallGraph(pkgs)

	find := func(name string) *framework.FuncNode {
		t.Helper()
		for fn, node := range g.Nodes {
			if fn.Name() == name {
				return node
			}
		}
		t.Fatalf("no node for %s", name)
		return nil
	}
	calleeNames := func(n *framework.FuncNode) map[string]bool {
		out := map[string]bool{}
		for _, c := range n.Callees {
			out[types.ObjectString(c, func(*types.Package) string { return "" })] = true
		}
		return out
	}

	root := calleeNames(find("Root"))
	for _, want := range []string{
		"func Helper() int",         // direct cross-package call
		"func Other() int",          // via the closure, folded into Root
		"func (First).Pick() int",   // CHA: every implementation of Picker
		"func (*Second).Pick() int", //
	} {
		if !root[want] {
			t.Errorf("Root callees missing %q; have %v", want, root)
		}
	}
	if len(root) != 4 {
		t.Errorf("Root has %d callees, want 4: %v", len(root), root)
	}

	// b.Unreached is a node (every declared function is) but nothing calls
	// it — reachability from Root must not include it.
	reached := map[*types.Func]bool{}
	var walk func(fn *types.Func)
	walk = func(fn *types.Func) {
		if reached[fn] {
			return
		}
		reached[fn] = true
		if n := g.Nodes[fn]; n != nil {
			for _, c := range n.Callees {
				walk(c)
			}
		}
	}
	walk(find("Root").Fn)
	if fn := find("Unreached").Fn; reached[fn] {
		t.Errorf("Unreached is reachable from Root")
	}
	if fn := find("Other").Fn; !reached[fn] {
		t.Errorf("Other (via First.Pick and the closure) not reachable from Root")
	}
}

func TestFindPackageSuffix(t *testing.T) {
	_, pkgs := loadTree(t, map[string]string{"internal/spec/spec.go": "package spec\n"}, "internal/spec")
	pass := &framework.ModulePass{Pkgs: pkgs}
	if pass.FindPackage("internal/spec") == nil {
		t.Errorf("exact path lookup failed")
	}
	if pass.FindPackage("spec") == nil {
		t.Errorf("suffix lookup failed")
	}
	if pass.FindPackage("notloaded") != nil {
		t.Errorf("unknown path resolved")
	}
}

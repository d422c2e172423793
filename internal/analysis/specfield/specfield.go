// Package specfield machine-checks the spec surface contract (DESIGN.md
// §8, §13): the versioned wire structs in internal/spec are the public
// API, and every exported field they declare must be a real, finished
// part of it. Concretely, each exported field of an exported struct in
// internal/spec must:
//
//  1. carry a json tag — the wire name is chosen deliberately, never
//     defaulted to the Go identifier;
//  2. be consumed — read outside the spec package (the compile layer or
//     another consumer), or inside a spec lowering: a spec function whose
//     result is a type declared in another loaded package or a pointer to
//     one, such as ClusterV1.Config returning cluster.Config. Otherwise
//     the field is dead wire surface that deserializes into nothing;
//  3. participate in validation or defaulting — its json name appears in
//     a spec-package string literal (the validation field-path messages),
//     or the field is read in its declaring package's Validate or
//     Normalize pass, or it is a bool (every bool value is valid).
//
// A field that legitimately needs no validation (a seed: every int64 is
// valid) is waived with `//vet:spec <reason>` on the field.
//
// One more rule keeps the spec the only way into a cluster run: a
// composite literal of internal/cluster's Config type may appear only in
// the spec lowering ClusterV1.Config. Every other cluster configuration
// is a lowered ClusterV1, so no front end can grow a field the document
// lacks. Test files are not loaded, so they are exempt, and so is a
// nested module (the benchmark harness), which the rule does not cover.
package specfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"

	"vprobe/internal/analysis/framework"
)

// Analyzer is the spec-field contract check.
var Analyzer = &framework.ModuleAnalyzer{
	Name: "specfield",
	Doc: "require every exported internal/spec field to carry a json tag, " +
		"be consumed by the compile layer, and be validated or defaulted, " +
		"and build cluster.Config literals only in spec.ClusterV1.Config " +
		"(suppress with //vet:spec <reason>)",
	Run:        run,
	Directives: []string{"spec"},
}

func run(pass *framework.ModulePass) (any, error) {
	spec := pass.FindPackage("internal/spec")
	if spec == nil {
		return nil, nil // module without a spec layer: nothing to check
	}

	// Every string literal in the spec package: the validation messages
	// carry json field paths ("vms[0].vcpus"), so a field's json name
	// appearing here is evidence the validator talks about it.
	literals := collectStrings(spec)

	// Objects read inside spec's own Validate/Normalize declarations.
	validated := usesInside(spec, func(fd *ast.FuncDecl) bool {
		return fd.Name.Name == "Validate" || fd.Name.Name == "Normalize"
	})

	// Objects read by spec's lowerings or by any other loaded package (the
	// compile layer).
	consumed := usesInside(spec, lowering(pass, spec))
	for _, pkg := range pass.Pkgs {
		if pkg == spec {
			continue
		}
		for _, obj := range pkg.Info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				consumed[obj] = true
			}
		}
	}

	for _, f := range spec.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				checkField(pass, spec, ts.Name.Name, field, literals, validated, consumed)
			}
			return false
		})
	}
	checkClusterConfigs(pass, spec)
	return nil, nil
}

// checkClusterConfigs reports every composite literal of
// internal/cluster's Config type outside spec's ClusterV1.Config method,
// including literals whose type is elided inside an enclosing literal, in
// the packages of the module that declares internal/cluster.
func checkClusterConfigs(pass *framework.ModulePass, spec *framework.Package) {
	cluster := pass.FindPackage("internal/cluster")
	if cluster == nil {
		return
	}
	config, ok := cluster.Types.Scope().Lookup("Config").(*types.TypeName)
	if !ok {
		return
	}
	module, _ := framework.ModuleRoot(cluster.Dir)
	for _, pkg := range pass.Pkgs {
		if root, _ := framework.ModuleRoot(pkg.Dir); root != module {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if pkg == spec && isClusterLowering(decl) {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					lit, ok := n.(*ast.CompositeLit)
					if !ok {
						return true
					}
					named, ok := pkg.Info.TypeOf(lit).(*types.Named)
					if !ok || named.Obj() != config || pass.Suppressed(lit.Pos(), "spec") {
						return true
					}
					pass.Reportf(lit.Pos(), "cluster.Config literal outside spec.ClusterV1.Config: "+
						"a cluster configuration is built by lowering a ClusterV1 document")
					return true
				})
			}
		}
	}
}

// isClusterLowering reports whether decl is the method ClusterV1.Config.
func isClusterLowering(decl ast.Decl) bool {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok || fd.Name.Name != "Config" || fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	id, ok := recv.(*ast.Ident)
	return ok && id.Name == "ClusterV1"
}

func checkField(pass *framework.ModulePass, spec *framework.Package, structName string,
	field *ast.Field, literals []string, validated, consumed map[types.Object]bool) {
	for _, name := range field.Names {
		if !name.IsExported() {
			continue
		}
		obj := spec.Info.Defs[name]
		if obj == nil {
			continue
		}
		report := func(format string, args ...any) {
			if pass.Suppressed(name.Pos(), "spec") {
				return
			}
			pass.Reportf(name.Pos(), format, args...)
		}

		jsonName := jsonTagName(field)
		if jsonName == "" {
			report("spec field %s.%s has no json tag: wire names are part of the "+
				"versioned API and must be explicit", structName, name.Name)
			continue
		}
		if !consumed[obj] {
			report("spec field %s.%s (json %q) is never read outside internal/spec: "+
				"the compile layer must consume every wire field", structName, name.Name, jsonName)
		}
		if validated[obj] || isBool(obj) {
			continue
		}
		if !mentioned(literals, jsonName) {
			report("spec field %s.%s (json %q) is neither validated nor defaulted: "+
				"reference it in Validate/Normalize or waive with //vet:spec <reason>",
				structName, name.Name, jsonName)
		}
	}
}

// jsonTagName extracts the json wire name from a struct field tag,
// ignoring options after the comma. Returns "" for missing tags and "-".
func jsonTagName(field *ast.Field) string {
	if field.Tag == nil {
		return ""
	}
	tag := strings.Trim(field.Tag.Value, "`")
	name := reflect.StructTag(tag).Get("json")
	if i := strings.IndexByte(name, ','); i >= 0 {
		name = name[:i]
	}
	if name == "-" {
		return ""
	}
	return name
}

// collectStrings gathers the value of every string literal in the package
// except struct field tags — a field's own `json:"name"` tag must not
// count as the validator mentioning it.
func collectStrings(pkg *framework.Package) []string {
	var out []string
	for _, f := range pkg.Files {
		tags := map[*ast.BasicLit]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if field, ok := n.(*ast.Field); ok && field.Tag != nil {
				tags[field.Tag] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && !tags[lit] {
				out = append(out, strings.Trim(lit.Value, "`\""))
			}
			return true
		})
	}
	return out
}

// mentioned reports whether any collected literal contains name as a
// whole json path segment (bounded by non-identifier characters), so
// "vcpus" matches "vms[0].vcpus" but not "maxvcpus".
func mentioned(literals []string, name string) bool {
	for _, lit := range literals {
		for i := 0; ; {
			j := strings.Index(lit[i:], name)
			if j < 0 {
				break
			}
			start := i + j
			end := start + len(name)
			leftOK := start == 0 || !isWordByte(lit[start-1])
			rightOK := end == len(lit) || !isWordByte(lit[end])
			if leftOK && rightOK {
				return true
			}
			i = start + 1
		}
	}
	return false
}

func isWordByte(b byte) bool {
	return b == '_' || ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

// usesInside returns the objects referenced within the package's
// top-level function declarations that match.
func usesInside(pkg *framework.Package, match func(*ast.FuncDecl) bool) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !match(fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := pkg.Info.Uses[id]; obj != nil {
						out[obj] = true
					}
				}
				return true
			})
		}
	}
	return out
}

// lowering matches the spec functions that lower wire values onto
// runtime types: some result is a named type declared in another loaded
// package, or a pointer to one (ScenarioV1.Hypervisor returns
// *xen.Hypervisor).
func lowering(pass *framework.ModulePass, spec *framework.Package) func(*ast.FuncDecl) bool {
	others := map[string]bool{}
	for _, pkg := range pass.Pkgs {
		if pkg != spec {
			others[pkg.Types.Path()] = true
		}
	}
	return func(fd *ast.FuncDecl) bool {
		fn, ok := spec.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			return false
		}
		res := fn.Type().(*types.Signature).Results()
		for i := 0; i < res.Len(); i++ {
			typ := res.At(i).Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			if named, ok := typ.(*types.Named); ok &&
				named.Obj().Pkg() != nil && others[named.Obj().Pkg().Path()] {
				return true
			}
		}
		return false
	}
}

func isBool(obj types.Object) bool {
	b, ok := obj.Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

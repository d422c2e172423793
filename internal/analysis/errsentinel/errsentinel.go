// Package errsentinel keeps errors.Is working across the public API: a
// fmt.Errorf call that formats an error value with %v, %s, or %q flattens
// it to text and severs the chain — callers matching the package sentinels
// (vprobe.ErrInvalidSpec, ErrAlreadyRun, ...) stop seeing them.
// Error arguments must be wrapped with %w. The rare call that deliberately
// flattens (e.g. to redact an internal error at an API boundary) is
// annotated `//vet:nowrap <justification>`.
package errsentinel

import (
	"go/ast"
	"go/constant"
	"go/types"

	"vprobe/internal/analysis/framework"
)

// Analyzer is the errsentinel wrapping check.
var Analyzer = &framework.Analyzer{
	Name: "errsentinel",
	Doc: "require fmt.Errorf to wrap error arguments with %w so errors.Is " +
		"keeps matching sentinels (suppress with //vet:nowrap)",
	Run:        run,
	Directives: []string{"nowrap"},
}

func run(pass *framework.Pass) (any, error) {
	errType := types.Universe.Lookup("error").Type()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
				return true
			}
			checkErrorf(pass, call, errType)
			return true
		})
	}
	return nil, nil
}

func checkErrorf(pass *framework.Pass, call *ast.CallExpr, errType types.Type) {
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	verbs, ok := parseVerbs(constant.StringVal(tv.Value))
	if !ok {
		return // indexed or otherwise exotic format; stay silent
	}
	for i, verb := range verbs {
		argIdx := 1 + i
		if argIdx >= len(call.Args) {
			return // fmt itself will complain about missing args
		}
		if verb != 'v' && verb != 's' && verb != 'q' {
			continue
		}
		at := pass.TypesInfo.TypeOf(call.Args[argIdx])
		if at == nil || !types.AssignableTo(at, errType) {
			continue
		}
		if pass.Suppressed(call.Pos(), "nowrap") {
			continue
		}
		pass.Reportf(call.Args[argIdx].Pos(),
			"error formatted with %%%c loses the chain for errors.Is; wrap it with %%w (//vet:nowrap to flatten deliberately)", verb)
	}
}

// parseVerbs returns the verb letter consuming each successive argument of
// a fmt format string. A '*' width or precision consumes an argument and is
// recorded as '*'. Explicit argument indexes ("%[1]s") return ok=false —
// the analyzer skips those calls rather than mis-attributing verbs.
func parseVerbs(format string) (verbs []byte, ok bool) {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
	spec:
		for ; i < len(format); i++ {
			switch c := format[i]; {
			case c == '%':
				break spec // literal %%
			case c == '[':
				return nil, false
			case c == '*':
				verbs = append(verbs, '*')
			case c == '+' || c == '-' || c == '#' || c == ' ' || c == '0' ||
				c == '.' || (c >= '1' && c <= '9'):
				// flags, width, precision: keep scanning
			default:
				verbs = append(verbs, c)
				break spec
			}
		}
	}
	return verbs, true
}

// Package framework is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer holds a name, a doc
// string, and a Run function; a Pass hands the Run function one typechecked
// package plus a Report callback for diagnostics.
//
// The build environment for this repository is a zero-dependency module (no
// network, no module proxy), so the real x/tools framework cannot be pulled
// in. The types here keep the same field names and shapes as x/tools so
// that, the day the dependency can be pinned, migrating an analyzer is a
// one-line import change. See DESIGN.md §8 "Determinism contract".
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. It mirrors analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is the one-paragraph help text (first line is the summary).
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
	// Directives lists the //vet:<name> suppression names this analyzer
	// honours; the driver uses the union to report dangling directives.
	Directives []string
}

// Diagnostic is one finding, anchored at a token position. It mirrors
// analysis.Diagnostic (minus suggested fixes).
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one typechecked package through an Analyzer.Run call. It
// mirrors analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// directives maps filename -> line -> directives present on that
	// line, built lazily from the files' comments.
	directives map[string]map[int][]Directive
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// DirectivePrefix introduces suppression comments: `//vet:<name>` on the
// flagged line, or alone on the line directly above it. Anything after the
// name (separated by a space) is free-form justification.
const DirectivePrefix = "vet:"

// Directive is one parsed `//vet:<name> <reason>` suppression comment.
// The reason is everything after the name, trimmed; analyzers that require
// written justification (hotpath's //vet:alloc) check Reason != "".
type Directive struct {
	// Name is the directive identifier after the vet: prefix.
	Name string
	// Reason is the free-form justification following the name.
	Reason string
	// Pos is where the comment starts.
	Pos token.Pos
}

// Suppressed reports whether a `//vet:<name>` directive covers pos: on the
// same line as pos or on the line immediately above.
func (p *Pass) Suppressed(pos token.Pos, name string) bool {
	_, ok := p.Suppression(pos, name)
	return ok
}

// Suppression returns the `//vet:<name>` directive covering pos (same line
// or the line immediately above), so analyzers can inspect the written
// reason.
func (p *Pass) Suppression(pos token.Pos, name string) (Directive, bool) {
	if p.directives == nil {
		p.directives = collectDirectives(p.Fset, p.Files)
	}
	return lookupDirective(p.directives, p.Fset, pos, name)
}

// lookupDirective finds a directive named name covering pos in a
// filename -> line -> directives index.
func lookupDirective(idx map[string]map[int][]Directive, fset *token.FileSet,
	pos token.Pos, name string) (Directive, bool) {
	position := fset.Position(pos)
	lines := idx[position.Filename]
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, d := range lines[line] {
			if d.Name == name {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// collectDirectives scans every comment of every file for //vet: markers,
// keyed by the line the comment starts on.
func collectDirectives(fset *token.FileSet, files []*ast.File) map[string]map[int][]Directive {
	out := make(map[string]map[int][]Directive)
	for _, d := range fileDirectives(files) {
		pos := fset.Position(d.Pos)
		if out[pos.Filename] == nil {
			out[pos.Filename] = make(map[int][]Directive)
		}
		out[pos.Filename][pos.Line] = append(out[pos.Filename][pos.Line], d)
	}
	return out
}

// fileDirectives returns every //vet: directive of files in source order.
func fileDirectives(files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, DirectivePrefix) {
					continue
				}
				name := strings.TrimPrefix(text, DirectivePrefix)
				reason := ""
				if i := strings.IndexAny(name, " \t—"); i >= 0 {
					name, reason = name[:i], strings.TrimLeft(name[i:], " \t—")
				}
				if name == "" {
					continue
				}
				out = append(out, Directive{Name: name, Reason: strings.TrimSpace(reason), Pos: c.Pos()})
			}
		}
	}
	return out
}

// RunAnalyzer applies a to pkg and returns the diagnostics sorted by
// position. Errors from the analyzer itself (not findings) are returned.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

// sortDiagnostics orders findings by file, then line, then column, then
// message, so vprobe-vet output is stable run to run (the linter holds
// itself to the determinism contract it enforces).
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	key := func(d Diagnostic) string {
		p := fset.Position(d.Pos)
		return fmt.Sprintf("%s\x00%08d\x00%08d\x00%s", p.Filename, p.Line, p.Column, d.Message)
	}
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && key(diags[j]) < key(diags[j-1]); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

package framework

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// ModuleAnalyzer is a whole-module static check: unlike Analyzer, whose Run
// sees one package at a time, a ModuleAnalyzer's Run sees every loaded
// package at once, so it can follow call edges and contracts across package
// boundaries (the hotpath reachability walk, the spec-field/compile-layer
// contract). It deliberately mirrors Analyzer's shape.
type ModuleAnalyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is the one-paragraph help text (first line is the summary).
	Doc string
	// Run applies the analyzer to the whole package set.
	Run func(*ModulePass) (any, error)
	// Directives lists the //vet:<name> suppression names this analyzer
	// honours; the driver uses the union to report dangling directives.
	Directives []string
}

// ModulePass carries the full typechecked package set through a
// ModuleAnalyzer.Run call, with the same Report/Suppressed vocabulary as
// the per-package Pass. Each Run gets a fresh pass and no state crosses
// between analyzers: one that needs another's derived set recomputes it
// (telemetryhandle calls hotpath.Reach).
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Fset     *token.FileSet
	// Pkgs is every loaded package, in load order.
	Pkgs   []*Package
	Report func(Diagnostic)

	directives map[string]map[int][]Directive
}

// Reportf reports a formatted diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether a `//vet:<name>` directive covers pos, with
// the same placement rules as Pass.Suppressed (same line or the line
// immediately above), across every loaded package.
func (p *ModulePass) Suppressed(pos token.Pos, name string) bool {
	_, ok := p.Suppression(pos, name)
	return ok
}

// Suppression returns the `//vet:<name>` directive covering pos, so the
// analyzer can check the written reason.
func (p *ModulePass) Suppression(pos token.Pos, name string) (Directive, bool) {
	if p.directives == nil {
		p.directives = map[string]map[int][]Directive{}
		for _, pkg := range p.Pkgs {
			for file, lines := range collectDirectives(p.Fset, pkg.Files) {
				p.directives[file] = lines
			}
		}
	}
	return lookupDirective(p.directives, p.Fset, pos, name)
}

// Directives returns every `//vet:<name>` directive of the loaded
// packages in source order, so an analyzer can report the ones it never
// consulted.
func (p *ModulePass) Directives(name string) []Directive {
	var out []Directive
	for _, pkg := range p.Pkgs {
		for _, d := range fileDirectives(pkg.Files) {
			if d.Name == name {
				out = append(out, d)
			}
		}
	}
	return out
}

// FindPackage returns the loaded package whose import path equals path or
// ends with "/"+path — so analyzers name real packages by full path
// ("vprobe/internal/spec") and analysistest fixtures by suffix ("spec").
func (p *ModulePass) FindPackage(path string) *Package {
	for _, pkg := range p.Pkgs {
		if pkg.Path == path || strings.HasSuffix(pkg.Path, "/"+path) {
			return pkg
		}
	}
	return nil
}

// RunModuleAnalyzer applies a to the whole package set and returns the
// diagnostics sorted by position.
func RunModuleAnalyzer(a *ModuleAnalyzer, fset *token.FileSet, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &ModulePass{
		Analyzer: a,
		Fset:     fset,
		Pkgs:     pkgs,
		Report:   func(d Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sortDiagnostics(fset, diags)
	return diags, nil
}

// DanglingDirectives scans every //vet: comment of the loaded packages and
// returns a diagnostic for each directive whose name no analyzer claims —
// a typo ("//vet:allocs") or a suppression that outlived its analyzer
// would otherwise silently suppress nothing forever.
func DanglingDirectives(fset *token.FileSet, pkgs []*Package, known []string) []Diagnostic {
	knownSet := make(map[string]bool, len(known))
	for _, n := range known {
		knownSet[n] = true
	}
	sorted := append([]string(nil), known...)
	sort.Strings(sorted)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, lines := range collectDirectives(fset, pkg.Files) {
			for _, ds := range lines {
				for _, d := range ds {
					if !knownSet[d.Name] {
						diags = append(diags, Diagnostic{Pos: d.Pos, Message: fmt.Sprintf(
							"dangling directive //vet:%s: no analyzer honours it (known: %s)",
							d.Name, strings.Join(sorted, ", "))})
					}
				}
			}
		}
	}
	sortDiagnostics(fset, diags)
	return diags
}

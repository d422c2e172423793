// Command vprobe-vet is the repo's determinism-and-correctness linter: a
// multichecker over the custom analyzers that machine-check the
// determinism contract (DESIGN.md §8) and the hot-path allocation
// contract (§13). Per-package analyzers run over each loaded package;
// module analyzers (hotpath, specfield, telemetryhandle) run once over the
// whole loaded set so they can follow call edges and contracts across
// package boundaries. hotpath and telemetryhandle check the same reach
// walk from the //vprobe:hotpath roots (hotpath.Reach), each over a fresh
// pass; hotpath also compiles the packages that walk touches with
// -gcflags=-m, under VPROBE_ESCAPE_GOCACHE, to check the compiler's
// escape sites. A final pass
// reports dangling //vet: directives — suppressions naming no known
// analyzer, which would otherwise silently suppress nothing forever.
//
// CI runs it next to go vet; locally, `make lint` does the same.
//
// Usage:
//
//	vprobe-vet [-list] [-json] [-only name,name] [packages]
//
// Packages default to ./... resolved against the enclosing module. With
// -json, each finding is one JSON object per line ({"file": ...,
// "line": ..., "col": ..., "analyzer": ..., "message": ...}) for
// toolchain consumption. Exit status: 0 clean, 1 findings, 2 usage or
// load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vprobe/internal/analysis/ctxflow"
	"vprobe/internal/analysis/errsentinel"
	"vprobe/internal/analysis/eventswitch"
	"vprobe/internal/analysis/framework"
	"vprobe/internal/analysis/hotpath"
	"vprobe/internal/analysis/mapiter"
	"vprobe/internal/analysis/specfield"
	"vprobe/internal/analysis/telemetryhandle"
	"vprobe/internal/analysis/walltime"
)

var analyzers = []*framework.Analyzer{
	ctxflow.Analyzer,
	errsentinel.Analyzer,
	eventswitch.Analyzer,
	mapiter.Analyzer,
	walltime.Analyzer,
}

var moduleAnalyzers = []*framework.ModuleAnalyzer{
	hotpath.Analyzer,
	specfield.Analyzer,
	telemetryhandle.Analyzer,
}

// directivesName is the pseudo-analyzer reporting dangling //vet:
// suppressions.
const directivesName = "directives"

// finding is one diagnostic in output form; the JSON field names are the
// -json wire format.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding instead of text")
	only := flag.String("only", "", "comma-separated analyzer names to run (default all)")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		for _, a := range moduleAnalyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-16s %s\n", directivesName,
			"report //vet: suppressions whose name no analyzer honours")
		return
	}

	activePkg, activeMod, runDangling, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vprobe-vet: %v\n", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	ld, root, err := framework.NewModuleLoader(cwd)
	if err != nil {
		fatal(err)
	}
	modPath, err := framework.ModulePath(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err := ld.LoadPatterns(root, modPath, patterns)
	if err != nil {
		fatal(err)
	}

	var findings []finding
	add := func(name string, diags []framework.Diagnostic) {
		for _, d := range diags {
			pos := ld.Fset.Position(d.Pos)
			file := pos.Filename
			if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
			findings = append(findings, finding{
				File: file, Line: pos.Line, Col: pos.Column,
				Analyzer: name, Message: d.Message,
			})
		}
	}

	for _, pkg := range pkgs {
		for _, a := range activePkg {
			diags, err := framework.RunAnalyzer(a, pkg)
			if err != nil {
				fatal(err)
			}
			add(a.Name, diags)
		}
	}
	for _, a := range activeMod {
		diags, err := framework.RunModuleAnalyzer(a, ld.Fset, pkgs)
		if err != nil {
			fatal(err)
		}
		add(a.Name, diags)
	}
	if runDangling {
		add(directivesName, framework.DanglingDirectives(ld.Fset, pkgs, knownDirectives()))
	}

	if err := render(os.Stdout, findings, *jsonOut); err != nil {
		fatal(err)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "vprobe-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// render sorts the findings deterministically and writes them as text
// lines or JSON objects (one per line).
func render(w io.Writer, findings []finding, jsonOut bool) error {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	enc := json.NewEncoder(w)
	for _, f := range findings {
		if jsonOut {
			if err := enc.Encode(f); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n",
			f.File, f.Line, f.Col, f.Analyzer, f.Message); err != nil {
			return err
		}
	}
	return nil
}

// selectAnalyzers filters the registered analyzers by the -only flag. The
// dangling-directive pass runs with the full set (so filtering never
// makes a valid suppression look dangling) and is selectable by name.
func selectAnalyzers(only string) ([]*framework.Analyzer, []*framework.ModuleAnalyzer, bool, error) {
	if only == "" {
		return analyzers, moduleAnalyzers, true, nil
	}
	byName := make(map[string]*framework.Analyzer)
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	modByName := make(map[string]*framework.ModuleAnalyzer)
	for _, a := range moduleAnalyzers {
		modByName[a.Name] = a
	}
	var pkgActive []*framework.Analyzer
	var modActive []*framework.ModuleAnalyzer
	dangling := false
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		switch {
		case byName[name] != nil:
			pkgActive = append(pkgActive, byName[name])
		case modByName[name] != nil:
			modActive = append(modActive, modByName[name])
		case name == directivesName:
			dangling = true
		default:
			return nil, nil, false, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	return pkgActive, modActive, dangling, nil
}

// knownDirectives is the union of every analyzer's suppression names.
func knownDirectives() []string {
	var out []string
	for _, a := range analyzers {
		out = append(out, a.Directives...)
	}
	for _, a := range moduleAnalyzers {
		out = append(out, a.Directives...)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "vprobe-vet: %v\n", err)
	os.Exit(2)
}

// Package analysistest runs a framework.Analyzer over fixture packages laid
// out GOPATH-style under testdata/src/<path>, checking reported diagnostics
// against `// want "regexp"` comments — the same convention as
// golang.org/x/tools/go/analysis/analysistest, re-implemented on the
// dependency-free framework.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vprobe/internal/analysis/framework"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// want is one expectation: a diagnostic whose position is on line of file
// and whose message matches re.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads each fixture package under testdata/src and applies the
// analyzer, failing the test on any diagnostic without a matching want
// comment and on any want comment without a matching diagnostic.
func Run(t *testing.T, testdata string, a *framework.Analyzer, paths ...string) {
	t.Helper()
	ld := framework.NewTreeLoader(filepath.Join(testdata, "src"))
	for _, path := range paths {
		pkg, err := ld.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		wants, err := collectWants(pkg)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := framework.RunAnalyzer(a, pkg)
		if err != nil {
			t.Fatalf("run %s on %s: %v", a.Name, path, err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if !claim(wants, pos.Filename, pos.Line, d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
			}
		}
	}
}

// RunModule loads every listed fixture package under testdata/src into one
// loader and applies the module analyzer once over the whole set — the
// module-analyzer counterpart of Run, for analyzers whose findings depend
// on cross-package edges (hotpath reachability, spec-field consumption).
// Want comments from every listed package participate.
func RunModule(t *testing.T, testdata string, a *framework.ModuleAnalyzer, paths ...string) {
	t.Helper()
	ld := framework.NewTreeLoader(filepath.Join(testdata, "src"))
	var pkgs []*framework.Package
	var wants []*want
	for _, path := range paths {
		pkg, err := ld.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
		ws, err := collectWants(pkg)
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, ws...)
	}
	diags, err := framework.RunModuleAnalyzer(a, ld.Fset, pkgs)
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	for _, d := range diags {
		pos := ld.Fset.Position(d.Pos)
		if !claim(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// claim marks the first unmatched want on (file, line) whose pattern
// matches msg.
func claim(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses `// want "re" "re" ...` comments, or the same in a
// /* */ comment for a line whose line comment is taken (a //vet: directive
// the analyzer reports), from the package sources. The expectation applies
// to the line the comment starts on.
func collectWants(pkg *framework.Package) ([]*want, error) {
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if text == c.Text {
					text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := splitQuoted(rest)
				if err != nil {
					return nil, fmt.Errorf("%s: bad want comment: %w", pos, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %q: %w", pos, p, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants, nil
}

// splitQuoted parses a sequence of Go double- or back-quoted strings.
func splitQuoted(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		switch s[0] {
		case '"':
			end := findStringEnd(s)
			if end < 0 {
				return nil, fmt.Errorf("unterminated string in %q", s)
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			out = append(out, unq)
			s = s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated raw string in %q", s)
			}
			out = append(out, s[1:end+1])
			s = s[end+2:]
		default:
			return nil, fmt.Errorf("expected quoted pattern at %q", s)
		}
	}
}

// findStringEnd returns the index of the closing double quote of the
// Go string literal starting at s[0], honoring backslash escapes.
func findStringEnd(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}

// MustWriteTree is a test helper materializing an in-memory fixture tree
// under dir (used by framework self-tests that synthesize fixtures).
func MustWriteTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

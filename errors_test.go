package vprobe_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"vprobe"
	"vprobe/internal/spec"
)

// publicSentinels holds the value of every sentinel errors.go declares,
// so the audit below can check them; declaredSentinels keeps it complete.
// internal/serve has a matching audit that every sentinel in errors.go
// maps to a deliberate HTTP status.
var publicSentinels = map[string]error{
	"ErrTelemetryAttached": vprobe.ErrTelemetryAttached,
	"ErrTracingAttached":   vprobe.ErrTracingAttached,
	"ErrAlreadyRun":        vprobe.ErrAlreadyRun,
	"ErrSpecVersion":       vprobe.ErrSpecVersion,
	"ErrInvalidSpec":       vprobe.ErrInvalidSpec,
}

// declaredSentinels parses errors.go and returns the name of every
// exported Err* variable it declares.
func declaredSentinels(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "errors.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		if gen, ok := decl.(*ast.GenDecl); ok && gen.Tok == token.VAR {
			for _, spec := range gen.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if name.IsExported() && strings.HasPrefix(name.Name, "Err") {
						names = append(names, name.Name)
					}
				}
			}
		}
	}
	return names
}

// TestSentinelAudit asserts the sentinel set is complete and well formed:
// publicSentinels holds exactly the sentinels errors.go declares, and
// they are non-nil, pairwise distinct, and package-prefixed so wrapped
// messages read sensibly.
func TestSentinelAudit(t *testing.T) {
	declared := declaredSentinels(t)
	if len(declared) == 0 {
		t.Fatal("errors.go declares no sentinels")
	}
	for _, name := range declared {
		if _, ok := publicSentinels[name]; !ok {
			t.Errorf("errors.go declares %s but publicSentinels lacks it", name)
		}
	}
	if len(publicSentinels) != len(declared) {
		t.Errorf("publicSentinels has %d entries for %d declared sentinels", len(publicSentinels), len(declared))
	}
	for name, err := range publicSentinels {
		if err == nil {
			t.Errorf("%s is nil", name)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "vprobe: ") && !strings.HasPrefix(msg, "spec: ") {
			t.Errorf("%s message %q lacks a package prefix", name, msg)
		}
		for other, oerr := range publicSentinels {
			if name != other && errors.Is(err, oerr) {
				t.Errorf("%s matches %s; sentinels must be distinct", name, other)
			}
		}
	}
}

// TestSpecSentinelAliases pins the re-exports: matching against the
// public names and against the spec package's own sentinels must be
// interchangeable.
func TestSpecSentinelAliases(t *testing.T) {
	if !errors.Is(vprobe.ErrInvalidSpec, spec.ErrInvalid) ||
		!errors.Is(spec.ErrInvalid, vprobe.ErrInvalidSpec) {
		t.Error("ErrInvalidSpec is not spec.ErrInvalid")
	}
	if !errors.Is(vprobe.ErrSpecVersion, spec.ErrVersion) ||
		!errors.Is(spec.ErrVersion, vprobe.ErrSpecVersion) {
		t.Error("ErrSpecVersion is not spec.ErrVersion")
	}
	err := spec.ScenarioV1{}.Validate() // no VMs
	if !errors.Is(err, vprobe.ErrInvalidSpec) {
		t.Errorf("spec validation error %v does not match the public alias", err)
	}
}

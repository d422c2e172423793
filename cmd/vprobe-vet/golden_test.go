package main

import (
	"strings"
	"testing"
)

// unsorted findings as the drivers produce them: module analyzers report
// after per-package ones, so positions arrive out of order.
var goldenFindings = []finding{
	{File: "internal/xen/policy.go", Line: 80, Col: 9, Analyzer: "mapiter",
		Message: "map iteration order feeds scheduling state"},
	{File: "internal/core/partition.go", Line: 12, Col: 2, Analyzer: "hotpath",
		Message: "append may grow its backing array (hot via Partition)"},
	{File: "internal/core/partition.go", Line: 12, Col: 2, Analyzer: "directives",
		Message: "dangling directive //vet:allocs: no analyzer honours it"},
	{File: "internal/core/partition.go", Line: 9, Col: 14, Analyzer: "walltime",
		Message: "time.Now() in simulation code"},
}

const goldenText = `internal/core/partition.go:9:14: [walltime] time.Now() in simulation code
internal/core/partition.go:12:2: [directives] dangling directive //vet:allocs: no analyzer honours it
internal/core/partition.go:12:2: [hotpath] append may grow its backing array (hot via Partition)
internal/xen/policy.go:80:9: [mapiter] map iteration order feeds scheduling state
`

const goldenJSON = `{"file":"internal/core/partition.go","line":9,"col":14,"analyzer":"walltime","message":"time.Now() in simulation code"}
{"file":"internal/core/partition.go","line":12,"col":2,"analyzer":"directives","message":"dangling directive //vet:allocs: no analyzer honours it"}
{"file":"internal/core/partition.go","line":12,"col":2,"analyzer":"hotpath","message":"append may grow its backing array (hot via Partition)"}
{"file":"internal/xen/policy.go","line":80,"col":9,"analyzer":"mapiter","message":"map iteration order feeds scheduling state"}
`

func TestRenderGolden(t *testing.T) {
	for _, mode := range []struct {
		name string
		json bool
		want string
	}{
		{"text", false, goldenText},
		{"json", true, goldenJSON},
	} {
		t.Run(mode.name, func(t *testing.T) {
			in := append([]finding(nil), goldenFindings...)
			var buf strings.Builder
			if err := render(&buf, in, mode.json); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != mode.want {
				t.Errorf("render(%s) mismatch:\ngot:\n%swant:\n%s", mode.name, got, mode.want)
			}
		})
	}
}

func TestRenderEmpty(t *testing.T) {
	var buf strings.Builder
	if err := render(&buf, nil, true); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("no findings must render nothing, got %q", buf.String())
	}
}

func TestSelectAnalyzers(t *testing.T) {
	pkgA, modA, dangling, err := selectAnalyzers("")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgA) != len(analyzers) || len(modA) != len(moduleAnalyzers) || !dangling {
		t.Errorf("empty -only must select everything (got %d pkg, %d mod, dangling=%v)",
			len(pkgA), len(modA), dangling)
	}

	pkgA, modA, dangling, err = selectAnalyzers("hotpath, walltime")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgA) != 1 || pkgA[0].Name != "walltime" {
		t.Errorf("pkg selection = %v, want [walltime]", pkgA)
	}
	if len(modA) != 1 || modA[0].Name != "hotpath" {
		t.Errorf("module selection = %v, want [hotpath]", modA)
	}
	if dangling {
		t.Errorf("directives pass selected without being named")
	}

	if _, _, _, err := selectAnalyzers("nosuch"); err == nil {
		t.Errorf("unknown analyzer name must error")
	}

	_, _, dangling, err = selectAnalyzers("directives")
	if err != nil || !dangling {
		t.Errorf("-only directives: dangling=%v err=%v", dangling, err)
	}
}

// knownDirectives must cover every suppression name used in the tree; a
// rename here without a rename there would make live suppressions dangle.
func TestKnownDirectivesComplete(t *testing.T) {
	known := map[string]bool{}
	for _, n := range knownDirectives() {
		known[n] = true
	}
	for _, want := range []string{"ordered", "wallclock", "ctx", "partial", "nowrap",
		"alloc", "spec", "handle"} {
		if !known[want] {
			t.Errorf("directive %q not claimed by any analyzer", want)
		}
	}
}

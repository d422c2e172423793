package specfield_test

import (
	"testing"

	"vprobe/internal/analysis/framework/analysistest"
	"vprobe/internal/analysis/specfield"
)

func TestSpecField(t *testing.T) {
	analysistest.RunModule(t, analysistest.TestData(), specfield.Analyzer,
		"internal/spec", "compilefix", "runtimefix")
}

package vprobe_test

import (
	"errors"
	"strings"
	"testing"

	"vprobe"
	"vprobe/internal/spec"
)

// publicSentinels is the audit list of every sentinel the public API
// exposes. Adding a sentinel without extending this list fails the audit
// below; internal/serve has a matching audit that every entry here maps
// to a deliberate HTTP status.
var publicSentinels = map[string]error{
	"ErrUnknownTopology":   vprobe.ErrUnknownTopology,
	"ErrUnknownScheduler":  vprobe.ErrUnknownScheduler,
	"ErrNoFreeVCPU":        vprobe.ErrNoFreeVCPU,
	"ErrAlreadyStarted":    vprobe.ErrAlreadyStarted,
	"ErrUnknownPolicy":     vprobe.ErrUnknownPolicy,
	"ErrTelemetryAttached": vprobe.ErrTelemetryAttached,
	"ErrAlreadyRun":        vprobe.ErrAlreadyRun,
	"ErrSpecVersion":       vprobe.ErrSpecVersion,
	"ErrInvalidSpec":       vprobe.ErrInvalidSpec,
}

// TestSentinelAudit asserts the sentinel set is well formed: non-nil,
// pairwise distinct, and package-prefixed so wrapped messages read
// sensibly.
func TestSentinelAudit(t *testing.T) {
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

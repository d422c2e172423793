package spec_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"vprobe/internal/spec"
)

// TestTraceKeyExcluded pins the cache contract for the flight recorder:
// trace and trace_limit are diagnostic toggles that never change results,
// so — like workers and place_check — they must not change the canonical
// key on either spec.
func TestTraceKeyExcluded(t *testing.T) {
	sc := spec.ScenarioV1{VMs: []spec.VMV1{{Name: "a", MemoryMB: 512, VCPUs: 1}}}
	traced := sc
	traced.Trace = true
	traced.TraceLimit = 4096
	if traced.Key() != sc.Key() {
		t.Error("Trace/TraceLimit changed the scenario key")
	}

	cl := spec.ClusterV1{Hosts: 2, Seed: 5}
	clTraced := cl
	clTraced.Trace = true
	clTraced.TraceLimit = 4096
	if clTraced.Key() != cl.Key() {
		t.Error("Trace/TraceLimit changed the cluster key")
	}
}

// TestTraceValidation covers the trace config's error paths on both specs.
func TestTraceValidation(t *testing.T) {
	base := spec.ScenarioV1{VMs: []spec.VMV1{{Name: "a", MemoryMB: 512, VCPUs: 1}}}
	good := base
	good.Trace = true
	good.TraceLimit = 1000
	if err := good.Validate(); err != nil {
		t.Fatalf("valid traced scenario rejected: %v", err)
	}
	negative := base
	negative.Trace = true
	negative.TraceLimit = -1
	if err := negative.Validate(); !errors.Is(err, spec.ErrInvalid) {
		t.Fatalf("negative trace_limit error = %v, want ErrInvalid", err)
	}
	limitOnly := base
	limitOnly.TraceLimit = 10
	if err := limitOnly.Validate(); !errors.Is(err, spec.ErrInvalid) {
		t.Fatalf("trace_limit without trace error = %v, want ErrInvalid", err)
	}

	cl := spec.ClusterV1{Hosts: 2}
	clGood := cl
	clGood.Trace = true
	if err := clGood.Validate(); err != nil {
		t.Fatalf("valid traced cluster rejected: %v", err)
	}
	clBad := cl
	clBad.TraceLimit = 5
	if err := clBad.Validate(); !errors.Is(err, spec.ErrInvalid) {
		t.Fatalf("cluster trace_limit without trace error = %v, want ErrInvalid", err)
	}
}

// TestReadArrivalTraceEmptyProfiles is FuzzArrivalTrace's first find: an
// explicit empty profile list must read as the record without one, since
// WriteTrace omits it and the round trip would otherwise not read back
// equal.
func TestReadArrivalTraceEmptyProfiles(t *testing.T) {
	empty, err := spec.ReadArrivalTrace(strings.NewReader(`{"profiles":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	none, err := spec.ReadArrivalTrace(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty, none) || empty[0].Profiles != nil {
		t.Fatalf("profiles [] read as %+v, no profiles as %+v", empty, none)
	}
}

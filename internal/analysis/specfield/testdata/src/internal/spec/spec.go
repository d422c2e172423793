// Package spec is the fixture counterpart of internal/spec: exported wire
// structs whose fields must be tagged, consumed, and validated.
package spec

import (
	"errors"

	"runtimefix"
)

// ScenarioV1 is a versioned wire struct.
type ScenarioV1 struct {
	Version string `json:"version"`
	VCPUs   int    `json:"vcpus"`
	Seed    int64  `json:"seed"` //vet:spec any int64 is a valid seed; nothing to validate
	Debug   bool   `json:"debug"`
	NoTag   int    // want `spec field ScenarioV1.NoTag has no json tag`
	Orphan  int    `json:"orphan"` // want `spec field ScenarioV1.Orphan \(json "orphan"\) is never read outside internal/spec`
	Loose   int    `json:"loose"`  // want `spec field ScenarioV1.Loose \(json "loose"\) is neither validated nor defaulted`
}

// Validate checks the invariants; the field paths in its messages use the
// json names.
func (s *ScenarioV1) Validate() error {
	if s.Version == "" {
		return errors.New("version is required")
	}
	if s.VCPUs <= 0 {
		return errors.New("vcpus must be positive")
	}
	return nil
}

// The reserved-name note mentions "orphan" so only the consumption rule
// fires for it.
var _ = "orphan is reserved for the v2 schema"

// unexported structs are outside the wire contract.
type scratch struct {
	NoTagEither int
}

// ClusterV1 is consumed only inside the spec package, through its
// lowering onto a runtime type.
type ClusterV1 struct {
	Hosts  int `json:"hosts"`
	Shadow int `json:"shadow"` // want `spec field ClusterV1.Shadow \(json "shadow"\) is never read outside internal/spec`
}

// Validate checks the invariants.
func (c ClusterV1) Validate() error {
	if c.Hosts < 1 || c.Shadow < 0 {
		return errors.New("hosts must be positive, shadow must not be negative")
	}
	return nil
}

// Config lowers the spec onto the runtime type: every field it reads is
// consumed.
func (c ClusterV1) Config() runtimefix.Config {
	return runtimefix.Config{Hosts: c.Hosts}
}

// shadow reads Shadow but returns a plain int, so it lowers nothing.
func (c ClusterV1) shadow() int { return c.Shadow }

// HostV1 is consumed only through a lowering that returns a pointer to
// the runtime type.
type HostV1 struct {
	Cores int `json:"cores"`
}

// Validate checks the invariants.
func (h HostV1) Validate() error {
	if h.Cores < 1 {
		return errors.New("cores must be positive")
	}
	return nil
}

// Machine lowers the spec onto a pointer to the runtime type.
func (h HostV1) Machine() *runtimefix.Config { return &runtimefix.Config{Hosts: h.Cores} }

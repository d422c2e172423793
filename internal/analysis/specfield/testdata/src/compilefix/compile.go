// Package compilefix is the fixture compile layer: it consumes the spec
// fields, which is rule 2 of the contract.
package compilefix

import (
	"internal/cluster"
	"internal/spec"
)

// Compile lowers a scenario; every field it touches counts as consumed.
func Compile(s *spec.ScenarioV1) int {
	n := s.VCPUs
	if s.Debug {
		n++
	}
	if s.Version != "" {
		n++
	}
	n += int(s.Seed % 2)
	n += s.Loose
	return n
}

// Hosts runs the lowered document (allowed), a hand-built configuration,
// configurations whose literal type is elided inside a slice literal,
// and a waived one.
func Hosts(c spec.ClusterV1) int {
	n := cluster.Run(c.Config())
	n += cluster.Run(cluster.Config{Hosts: 2}) // want `cluster.Config literal outside spec.ClusterV1.Config`
	for _, cfg := range []cluster.Config{
		{Hosts: 3}, // want `cluster.Config literal outside spec.ClusterV1.Config`
	} {
		n += cluster.Run(cfg)
	}
	//vet:spec the fixture's waived literal
	n += cluster.Run(cluster.Config{})
	return n
}

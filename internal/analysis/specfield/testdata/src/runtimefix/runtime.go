// Package runtimefix is the fixture runtime configuration a spec lowers
// onto.
package runtimefix

// Config is the runtime twin of the fixture ClusterV1.
type Config struct {
	Hosts int
}

// Package cluster is the fixture counterpart of internal/cluster: the
// runtime configuration only ClusterV1.Config may build as a literal.
package cluster

// Config is the runtime twin of the fixture ClusterV1.
type Config struct {
	Hosts int
}

// Run takes a configuration; reading one is not building one.
func Run(cfg Config) int { return cfg.Hosts }

// Package othermod is a nested module of its own, like the benchmark
// harness: the cluster.Config literal rule does not reach into it.
package othermod

import "internal/cluster"

// Fleet builds its own configuration, which the rule leaves alone.
func Fleet() int { return cluster.Run(cluster.Config{Hosts: 1024}) }

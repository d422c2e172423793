// Command vprobe-topo prints the machine presets: topology, latency
// matrix, and the paper's Table I configuration.
//
// Usage:
//
//	vprobe-topo [-json] [preset ...]
//
// With -json each topology is emitted in the JSON schema LoadFile reads,
// so a preset can be dumped, edited, and fed back via the -topology flag
// of vprobe-cluster (or any CLI that resolves topology files).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vprobe/internal/numa"
)

func main() {
	asJSON := flag.Bool("json", false, "emit topologies as loadable JSON instead of text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-json] [preset ...]\npresets:\n", os.Args[0])
		for _, name := range numa.PresetNames() {
			fmt.Fprintf(os.Stderr, "  %s\n", name)
		}
	}
	flag.Parse()

	names := flag.Args()
	if len(names) == 0 {
		names = numa.PresetNames()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for _, name := range names {
		top, err := numa.Resolve(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *asJSON {
			if err := enc.Encode(numa.Export(top)); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		fmt.Printf("topology %q\n%s\n", name, top)
		fmt.Println("  distance matrix (SLIT, 10 = local):")
		for a := 0; a < top.NumNodes(); a++ {
			fmt.Print("   ")
			for b := 0; b < top.NumNodes(); b++ {
				fmt.Printf(" %3d", top.Distance(numa.NodeID(a), numa.NodeID(b)))
			}
			fmt.Println()
		}
		fmt.Println()
	}
}

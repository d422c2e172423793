package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec parses a compact workload specification of the form
//
//	"soplex:4,hungry:8"           — four soplex instances, eight burners
//	"memcached@64:8"              — eight memcached workers at concurrency 64
//	"redis@2000:4, lu:2"          — servers take a load parameter after '@'
//	"mcf"                         — a bare name means one instance
//
// into one Ref per instance, in order. Parameterised servers (memcached,
// redis) accept an '@load' suffix; fixed catalog profiles do not. The
// spec is one VM's apps, at most maxApps of them: a count that would take
// the list past maxApps is rejected before any of its instances are
// built, so an outsized count costs nothing.
func ParseSpec(spec string, maxApps int) ([]Ref, error) {
	var out []Ref
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name := part
		count := 1
		if i := strings.LastIndex(part, ":"); i >= 0 {
			n, err := strconv.Atoi(strings.TrimSpace(part[i+1:]))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("workload: bad count in %q", part)
			}
			name = strings.TrimSpace(part[:i])
			count = n
		}
		load := 0
		if i := strings.Index(name, "@"); i >= 0 {
			n, err := strconv.Atoi(strings.TrimSpace(name[i+1:]))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("workload: bad load in %q", part)
			}
			load = n
			name = strings.TrimSpace(name[:i])
		}
		switch {
		case name == "memcached" && load == 0:
			return nil, fmt.Errorf("workload: %q needs a load, e.g. memcached@64", part)
		case name == "redis" && load == 0:
			return nil, fmt.Errorf("workload: %q needs a load, e.g. redis@2000", part)
		case name != "memcached" && name != "redis":
			if load != 0 {
				return nil, fmt.Errorf("workload: %q does not take a load parameter", name)
			}
			if _, err := ByName(name); err != nil {
				return nil, err
			}
		}
		if count > maxApps-len(out) {
			return nil, fmt.Errorf("workload: at most %d apps per VM, %q takes the spec past it",
				maxApps, part)
		}
		for i := 0; i < count; i++ {
			out = append(out, Ref{Name: name, Load: load})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: empty spec %q", spec)
	}
	return out, nil
}

// Ref names one app instance of a compact specification: a fixed catalog
// profile, or a parameterised server ("memcached", "redis") with its Load.
type Ref struct {
	Name string
	Load int
}

// Profile builds the profile r names.
func (r Ref) Profile() (*Profile, error) {
	switch r.Name {
	case "memcached":
		return Memcached(r.Load), nil
	case "redis":
		return Redis(r.Load), nil
	default:
		return ByName(r.Name)
	}
}

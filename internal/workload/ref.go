package workload

// Ref names one app instance: a fixed catalog profile, or a
// parameterised server ("memcached", "redis") with its Load.
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

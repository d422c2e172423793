package workload

import "testing"

// TestRefProfile: a ref builds its server at its load or its catalog
// profile, each call in its own storage, and an unknown name fails.
func TestRefProfile(t *testing.T) {
	if p, err := (Ref{Name: "memcached", Load: 64}).Profile(); err != nil || !p.Server || p.Name != "memcached-c64" {
		t.Fatalf("memcached@64 = %+v, %v", p, err)
	}
	if p, err := (Ref{Name: "redis", Load: 2000}).Profile(); err != nil || p.Name != "redis-p2000" {
		t.Fatalf("redis@2000 = %+v, %v", p, err)
	}
	a, _ := Ref{Name: "soplex"}.Profile()
	b, _ := Ref{Name: "soplex"}.Profile()
	if a.TotalInstructions = 1; b.TotalInstructions == 1 {
		t.Fatal("instances share storage")
	}
	if _, err := (Ref{Name: "doom"}).Profile(); err == nil {
		t.Fatal("unknown name accepted")
	}
}

package workload

import "testing"

func TestParseSpecBasics(t *testing.T) {
	ps, err := ParseSpec("soplex:4,hungry:8")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 12 {
		t.Fatalf("parsed %d profiles, want 12", len(ps))
	}
	if ps[0].Name != "soplex" || ps[4].Name != "hungry" {
		t.Fatalf("wrong order: %s, %s", ps[0].Name, ps[4].Name)
	}
	// Each instance builds its own profile.
	a, _ := ps[0].Profile()
	b, _ := ps[1].Profile()
	if a.TotalInstructions = 1; b.TotalInstructions == 1 {
		t.Fatal("instances share storage")
	}
}

func TestParseSpecBareName(t *testing.T) {
	ps, err := ParseSpec("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].Name != "mcf" {
		t.Fatalf("parsed %v", ps)
	}
}

func TestParseSpecServers(t *testing.T) {
	ps, err := ParseSpec("memcached@64:8, redis@2000:4")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 12 {
		t.Fatalf("parsed %d profiles", len(ps))
	}
	if p, _ := ps[0].Profile(); !p.Server || p.Name != "memcached-c64" {
		t.Fatalf("first profile = %+v", p)
	}
	if p, _ := ps[8].Profile(); p.Name != "redis-p2000" {
		t.Fatalf("ninth profile = %s", p.Name)
	}
}

func TestParseSpecWhitespaceAndEmpties(t *testing.T) {
	ps, err := ParseSpec(" lu : 2 ,, mg ")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Fatalf("parsed %d profiles", len(ps))
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"   ,  ",
		"soplex:0",
		"soplex:x",
		"doom",
		"memcached",     // missing load
		"memcached@0:2", // bad load
		"memcached@x:2", // bad load
		"soplex@4",      // load on fixed profile
		"redis",         // missing load
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

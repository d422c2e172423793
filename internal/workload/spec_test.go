package workload

import (
	"strings"
	"testing"
)

func TestParseSpecBasics(t *testing.T) {
	ps, err := ParseSpec("soplex:4,hungry:8", 16)
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
	ps, err := ParseSpec("mcf", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].Name != "mcf" {
		t.Fatalf("parsed %v", ps)
	}
}

func TestParseSpecServers(t *testing.T) {
	ps, err := ParseSpec("memcached@64:8, redis@2000:4", 16)
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
	ps, err := ParseSpec(" lu : 2 ,, mg ", 8)
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
		if _, err := ParseSpec(spec, 8); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestParseSpecCountCap: a count past the cap is rejected while parsing,
// before its instances are built, so an outsized count is cheap to refuse;
// a spec that lands exactly on the cap is accepted.
func TestParseSpecCountCap(t *testing.T) {
	for _, spec := range []string{"lu:1048576", "lu:4,mg:5", "mcf:9223372036854775807"} {
		refs, err := ParseSpec(spec, 8)
		if err == nil || !strings.Contains(err.Error(), "at most 8 apps per VM") {
			t.Errorf("%q: %d refs, err %v; want the 8-app cap", spec, len(refs), err)
		}
	}
	if refs, err := ParseSpec("lu:4,mg:4", 8); err != nil || len(refs) != 8 {
		t.Fatalf("spec at the cap: %d refs, err %v", len(refs), err)
	}
}

// FuzzParseSpec feeds arbitrary text through the workload-spec parser
// vprobe-compare reads its -w and -i flags with. It must never panic,
// never return more refs than the cap, and every ref it accepts must
// build its profile.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"soplex:4,hungry:4", "mcf", "memcached@64:4, redis@2000:4", " lu : 2 ,, mg ",
		"lu:1048576", "memcached@0:2", "soplex@4", "redis", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		refs, err := ParseSpec(spec, 8)
		if err != nil {
			return
		}
		if len(refs) == 0 || len(refs) > 8 {
			t.Fatalf("%q: accepted %d refs", spec, len(refs))
		}
		for _, r := range refs {
			if p, err := r.Profile(); err != nil || p == nil {
				t.Fatalf("%q: accepted ref %+v builds no profile: %v", spec, r, err)
			}
		}
	})
}

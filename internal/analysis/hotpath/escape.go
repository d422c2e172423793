package hotpath

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"vprobe/internal/analysis/framework"
)

// escapeSite is one heap decision of the compiler's escape analysis.
type escapeSite struct {
	file      string // absolute path
	line, col int
	msg       string // "x escapes to heap" or "moved to heap: x"
}

// compilerSites returns the compiler's escape sites for pkgs. Each
// package is compiled in the module whose go.mod encloses its directory
// (a nested module such as benchmark/ in its own), and only when its
// import path lies in that module: analysistest fixtures under the
// repository's testdata are never compiled.
func compilerSites(pkgs []*framework.Package) ([]escapeSite, error) {
	var roots []string
	mods := map[string]string{}
	paths := map[string][]string{}
	for _, pkg := range pkgs {
		root, err := framework.ModuleRoot(pkg.Dir)
		if err != nil {
			continue
		}
		mod, ok := mods[root]
		if !ok {
			if mod, err = framework.ModulePath(root); err != nil {
				return nil, err
			}
			mods[root] = mod
			roots = append(roots, root)
		}
		if pkg.Path == mod || strings.HasPrefix(pkg.Path, mod+"/") {
			paths[root] = append(paths[root], pkg.Path)
		}
	}
	var sites []escapeSite
	for _, root := range roots {
		if len(paths[root]) == 0 {
			continue
		}
		out, err := escapeOutput(root, mods[root], paths[root])
		if err != nil {
			return nil, err
		}
		sites = append(sites, parseEscapes(root, out)...)
	}
	return sites, nil
}

// escapeOutput returns the compiler's -m output for the listed packages of
// the module at root. Tests substitute canned output.
var escapeOutput = compileEscapes

// compileEscapes compiles pkgPaths, and the module packages they import,
// with -gcflags=<module>/...=-m. It runs `go list -export`, which
// compiles as `go build` does but links nothing: a main package costs no
// binary. The compile runs under its own GOCACHE (VPROBE_ESCAPE_GOCACHE,
// or a stable directory under the system temp dir): -m never competes
// with the normal build cache for flags, and a cache hit replays the
// compiler's diagnostics, so a warm run costs well under a second.
func compileEscapes(root, modPath string, pkgPaths []string) ([]byte, error) {
	cache := os.Getenv("VPROBE_ESCAPE_GOCACHE")
	if cache == "" {
		cache = filepath.Join(os.TempDir(), "vprobe-escape-gocache")
	}
	args := append([]string{"list", "-export", "-gcflags=" + modPath + "/...=-m"}, pkgPaths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOCACHE="+cache)
	var out bytes.Buffer
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list -export -gcflags=-m: %w\n%s", err, out.Bytes())
	}
	return out.Bytes(), nil
}

// parseEscapes keeps the heap decisions of -m output: `file:line:col: msg`
// lines whose message ends in "escapes to heap" or starts with "moved to
// heap:". Relative file names resolve against dir. Package headers,
// inlining notes and non-.go positions are skipped, and a site the
// compiler repeats (one per generic instantiation) is kept once.
func parseEscapes(dir string, out []byte) []escapeSite {
	var sites []escapeSite
	seen := map[escapeSite]bool{}
	for _, raw := range strings.Split(string(out), "\n") {
		parts := strings.SplitN(strings.TrimSpace(raw), ":", 4)
		if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
			continue
		}
		msg := strings.TrimSpace(parts[3])
		if !strings.HasSuffix(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap:") {
			continue
		}
		line, err1 := strconv.Atoi(parts[1])
		col, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			continue
		}
		file := parts[0]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		s := escapeSite{file: file, line: line, col: col, msg: msg}
		if !seen[s] {
			seen[s] = true
			sites = append(sites, s)
		}
	}
	return sites
}

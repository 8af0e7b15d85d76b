package load_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis/load"
)

// loadSet loads the named module packages through one loader (one shared
// type universe, as analysis.Run requires).
func loadSet(t *testing.T, paths ...string) []*load.Package {
	t.Helper()
	root, err := load.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := load.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*load.Package
	for _, p := range paths {
		tp, err := loader.Import(p)
		if err != nil {
			t.Fatalf("loading %s: %v", p, err)
		}
		pkg, err := loader.LoadDir("", p)
		if err != nil || pkg.Types != tp {
			t.Fatalf("memoized package for %s not returned (err %v)", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// index maps each package to its position in the sorted order.
func index(pkgs []*load.Package) map[string]int {
	out := make(map[string]int, len(pkgs))
	for i, p := range pkgs {
		out[p.Path] = i
	}
	return out
}

// TestDAGSortDependenciesFirst pins the property analysis.Run relies on for
// fact flow: every package sorts after everything in the set it imports —
// bitmat and sched before cover, cover before cluster.
func TestDAGSortDependenciesFirst(t *testing.T) {
	pkgs := loadSet(t,
		"repro/internal/cluster",
		"repro/internal/cover",
		"repro/internal/bitmat",
		"repro/internal/sched",
	)
	idx := index(load.DAGSort(pkgs))
	for _, dep := range []struct{ before, after string }{
		{"repro/internal/bitmat", "repro/internal/cover"},
		{"repro/internal/sched", "repro/internal/cover"},
		{"repro/internal/cover", "repro/internal/cluster"},
		{"repro/internal/bitmat", "repro/internal/cluster"},
	} {
		if idx[dep.before] >= idx[dep.after] {
			t.Errorf("%s sorted at %d, after its dependent %s at %d",
				dep.before, idx[dep.before], dep.after, idx[dep.after])
		}
	}
}

// TestDAGSortDeterministic pins the tie-break: any input permutation yields
// the identical order, and unordered packages break ties by path.
func TestDAGSortDeterministic(t *testing.T) {
	fwd := loadSet(t,
		"repro/internal/bitmat",
		"repro/internal/sched",
		"repro/internal/cover",
		"repro/internal/cluster",
	)
	rev := []*load.Package{fwd[3], fwd[2], fwd[1], fwd[0]}
	a, b := load.DAGSort(fwd), load.DAGSort(rev)
	for i := range a {
		if a[i].Path != b[i].Path {
			t.Fatalf("order differs at %d: %s vs %s", i, a[i].Path, b[i].Path)
		}
	}
	// bitmat and sched have no constraint between them: path order decides.
	idx := index(a)
	if idx["repro/internal/bitmat"] >= idx["repro/internal/sched"] {
		t.Errorf("tie not broken by path: bitmat at %d, sched at %d",
			idx["repro/internal/bitmat"], idx["repro/internal/sched"])
	}
}

// TestLoadAllSkipsNestedModules: a directory with its own go.mod belongs to
// another module, so LoadAll leaves it out as `go build ./...` does.
func TestLoadAllSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":            "module m\n\ngo 1.22\n",
		"a.go":              "package m\n",
		"sub/b.go":          "package sub\n",
		"nested/go.mod":     "module n\n\ngo 1.22\n",
		"nested/c.go":       "package n\n",
		"nested/inner/d.go": "package inner\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := load.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if len(got) != 2 || got[0] != "m" || got[1] != "m/sub" {
		t.Fatalf("LoadAll = %v, want [m m/sub]", got)
	}
}

package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// An offline package loader. The module has zero external dependencies, so
// the whole load is: enumerate package directories, let go/build pick each
// one's files for this GOOS/GOARCH and list its imports, parse, load
// intra-module imports first, and type-check with an importer that
// resolves module packages from the in-memory graph and standard-library
// packages from GOROOT source (go/importer's "source" compiler — no
// network, no pre-built export data needed).

// A Package is one loaded, type-checked package of the module.
type Package struct {
	PkgPath string // full import path, e.g. ellog/internal/sim
	Rel     string // module-relative path, "" for the root package
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	// TypeErrors collects type-checker complaints. The driver surfaces
	// them: analyzers over a broken package are unreliable.
	TypeErrors []error
}

// A Loader holds shared parse/type-check state across packages.
type Loader struct {
	Fset *token.FileSet

	root    string // module root directory
	modPath string
	std     types.Importer
	pkgs    map[string]*Package // by import path, in-flight and done
	order   []*Package          // every loaded package, after its module imports
}

// NewLoader locates the module root at or above dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
	}, nil
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			m := moduleRe.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("%s/go.mod: no module directive", d)
			}
			return d, string(m[1]), nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod at or above %s", dir)
		}
		d = parent
	}
}

// Load resolves patterns ("./...", "./dir/...", "./dir", import paths) to
// module packages, loads them plus their intra-module dependencies, and
// returns the matched packages in deterministic (path-sorted) order.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	rels, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, rel := range rels {
		pkg, err := l.loadRel(rel, nil)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// expand turns CLI patterns into module-relative package dirs.
func (l *Loader) expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var rels []string
	add := func(rel string) {
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		if !seen[rel] {
			seen[rel] = true
			rels = append(rels, rel)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if pat == "" {
			pat = "."
		}
		if rel, ok := strings.CutSuffix(pat, "..."); ok {
			rel = strings.TrimSuffix(rel, "/")
			if rel == "" || rel == "." {
				rel = ""
			}
			base := filepath.Join(l.root, filepath.FromSlash(rel))
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				r, _ := filepath.Rel(l.root, path)
				add(r)
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		// A single package: directory path or module import path.
		rel := strings.TrimPrefix(pat, l.modPath+"/")
		if pat == l.modPath {
			rel = ""
		}
		add(rel)
	}
	sort.Strings(rels)
	return rels, nil
}

// loadRel loads the package in module-relative dir rel (and, recursively,
// its intra-module imports). stack carries the DFS path for cycle reports.
// Returns nil for directories with no non-test Go files for this platform.
func (l *Loader) loadRel(rel string, stack []string) (*Package, error) {
	pkgPath := l.modPath
	if rel != "" {
		pkgPath = l.modPath + "/" + rel
	}
	if pkg, ok := l.pkgs[pkgPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle: %s", strings.Join(append(stack, pkgPath), " -> "))
		}
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	bp, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) || (err == nil && len(bp.GoFiles) == 0) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}

	// Load intra-module imports first so the importer can serve them.
	l.pkgs[pkgPath] = nil // in-flight marker
	for _, path := range bp.Imports {
		if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
			depRel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
			if _, err := l.loadRel(depRel, append(stack, pkgPath)); err != nil {
				return nil, err
			}
		}
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg := &Package{PkgPath: pkgPath, Rel: rel, Dir: dir, Files: files, Info: NewInfo()}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(pkgPath, l.Fset, files, pkg.Info)
	l.pkgs[pkgPath] = pkg
	l.order = append(l.order, pkg)
	return pkg, nil
}

// loaderImporter resolves module packages from the loader's graph and
// everything else from GOROOT source.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		if pkg, ok := l.pkgs[path]; ok && pkg != nil && pkg.Types != nil {
			return pkg.Types, nil
		}
		return nil, fmt.Errorf("module package %s not loaded", path)
	}
	return l.std.Import(path)
}

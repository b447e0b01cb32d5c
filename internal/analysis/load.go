package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Loader parses and type-checks packages of one module using only the
// standard library. Imports inside the module are resolved by mapping the
// import path onto the module's directory tree; everything else (the
// standard library) is delegated to the compiler's source importer, which
// type-checks GOROOT packages from source. Non-test files only.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string // directory containing go.mod
	ModPath string // module path from go.mod

	std  types.ImporterFrom
	pkgs map[string]*loadEntry // by cleaned absolute directory
}

type loadEntry struct {
	pkg     *Package
	err     error
	loading bool
}

// NewLoader locates the enclosing module of dir (by walking up to go.mod)
// and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		root = parent
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:    fset,
		ModRoot: root,
		ModPath: modPath,
		std:     std,
		pkgs:    make(map[string]*loadEntry),
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(rest)
			mod = strings.Trim(mod, `"`)
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", path)
}

// LoadDir parses and type-checks the package in dir. Results are memoized;
// import cycles and type errors are reported as errors.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	abs = filepath.Clean(abs)
	if e, ok := l.pkgs[abs]; ok {
		if e.loading {
			return nil, fmt.Errorf("analysis: import cycle through %s", abs)
		}
		return e.pkg, e.err
	}
	entry := &loadEntry{loading: true}
	l.pkgs[abs] = entry
	entry.pkg, entry.err = l.loadDir(abs)
	entry.loading = false
	return entry.pkg, entry.err
}

func (l *Loader) loadDir(abs string) (*Package, error) {
	bp, err := build.Default.ImportDir(abs, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil {
		return nil, err
	}
	importPath := l.ModPath
	if rel != "." {
		importPath = l.ModPath + "/" + filepath.ToSlash(rel)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s: %v", importPath, typeErrs[0])
	}
	nested := false
	for d := abs; len(d) > len(l.ModRoot); d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			nested = true
			break
		}
	}
	return &Package{
		Dir:        abs,
		ImportPath: importPath,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		Nested:     nested,
	}, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths map onto
// the module tree, everything else goes to the source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		dir := l.ModRoot
		if path != l.ModPath {
			dir = filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/")))
		}
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, 0)
}

// ExpandPatterns resolves command-line package patterns against the module
// tree. Supported forms: "./..." (every package under dir), a directory
// path, or a module import path. The result is a list of directories.
func (l *Loader) ExpandPatterns(dir string, patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			walked, err := l.walkPackages(dir)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			walked, err := l.walkPackages(filepath.Join(dir, strings.TrimSuffix(pat, "/...")))
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
		case pat == l.ModPath || strings.HasPrefix(pat, l.ModPath+"/"):
			add(filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(pat, l.ModPath), "/"))))
		default:
			add(filepath.Join(dir, pat))
		}
	}
	return dirs, nil
}

// walkPackages returns every directory under root holding a buildable
// non-test Go package, skipping testdata, vendor, and hidden directories.
func (l *Loader) walkPackages(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(path, 0); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

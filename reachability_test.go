package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// publicPackages are the module's import surface. Every exported name in
// them is a root, and so is every exported method of a type they export,
// including an internal type they re-export by alias.
var publicPackages = map[string]bool{
	"repro/wrangle":             true,
	"repro/wrangle/experiments": true,
	"repro/wrangle/extract":     true,
	"repro/wrangle/synth":       true,
}

// harnessPackage is the shared test harness: all of it, test files
// included, is a root.
const harnessPackage = "repro/internal/wrangletest"

// implicitMethods are the method names the standard library calls
// through its own interfaces. A reached type keeps them without any
// selector in the module naming them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Write": true, "Flush": true,
}

// keepUnreached lists the internal declarations that no root reaches and
// that stay anyway, each with the reason it stays.
var keepUnreached = map[string]string{
	"repro/internal/er.Resolver.Resolve":           "reference resolve the er tests compare the planned and constrained paths against",
	"repro/internal/fusion.ClaimGroups.LayoutSize": "lets the layout-patch tests bound the carried layout's growth",
	"repro/internal/wal.Scan":                      "reads a log image back for the core tests that pin the log format",
	"repro/internal/core.rowKey":                   "oracle for the row-key format the interner builds, checked in the shard tests",
	"repro/internal/provenance.KindMatch":          "provenance kind vocabulary: records carry their kind into the log",
	"repro/internal/provenance.KindFeedback":       "provenance kind vocabulary: records carry their kind into the log",
}

// TestInternalCodeIsReachable fails on any top-level declaration under
// internal/ that no binary, no public API and no shared test harness
// reaches. Reachability is by name: a declaration is reached when reached
// code names it (through its package for another package's names), and a
// method when its receiver type is reached and reached code selects its
// name anywhere. That over-approximates liveness, so the test never flags
// live code; it misses only a dead name that collides with a live one.
func TestInternalCodeIsReachable(t *testing.T) {
	m := parseModule(t, ".")
	dead := m.unreached()
	var fails []string
	for _, d := range dead {
		if _, ok := keepUnreached[d.key]; ok {
			continue
		}
		fails = append(fails, d.key+" ("+d.pos+")")
	}
	if len(fails) > 0 {
		t.Errorf("%d internal declarations are reached by no binary, public API or test harness; "+
			"delete them or add them to keepUnreached with a reason:\n\t%s",
			len(fails), strings.Join(fails, "\n\t"))
	}
	unreached := make(map[string]bool, len(dead))
	for _, d := range dead {
		unreached[d.key] = true
	}
	for key := range keepUnreached {
		if !unreached[key] {
			t.Errorf("keepUnreached entry %s names no unreached declaration; drop it", key)
		}
	}
}

// decl is one top-level declaration: a function, a method (key
// pkg.Type.Method), a type, a variable or a constant.
type decl struct {
	key  string
	pos  string
	pkg  string
	recv string // receiver type key, methods only
	name string
	// body is the node whose references the declaration reaches.
	body    ast.Node
	imports map[string]string // the file's import names → paths
	root    bool
	reached bool
}

type module struct {
	decls    []*decl
	byKey    map[string][]*decl
	byRecv   map[string][]*decl // receiver type key → its methods
	byName   map[string][]*decl // method name → methods of that name
	aliases  map[string]string  // alias type key → aliased type key
	selected map[string]bool    // selector names that reached code uses
	allMeths map[string]bool    // type keys whose exported methods are roots
}

// parseModule parses every Go file under dir, which holds go.mod.
func parseModule(t *testing.T, dir string) *module {
	t.Helper()
	modBytes, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	var modPath string
	for _, line := range strings.Split(string(modBytes), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	m := &module{
		byKey:    map[string][]*decl{},
		byRecv:   map[string][]*decl{},
		byName:   map[string][]*decl{},
		aliases:  map[string]string{},
		selected: map[string]bool{},
		allMeths: map[string]bool{},
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := modPath
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		test := strings.HasSuffix(name, "_test.go")
		if test && pkg != harnessPackage {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		m.addFile(fset, f, pkg, test)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (m *module) addFile(fset *token.FileSet, f *ast.File, pkg string, test bool) {
	imports := map[string]string{}
	for _, spec := range f.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = path
	}
	public := publicPackages[pkg] && !test
	isMain := f.Name.Name == "main"
	add := func(name, recv string, pos token.Pos, body ast.Node) {
		key := pkg + "." + name
		if recv != "" {
			key = recv + "." + name
		}
		d := &decl{
			key: key, pos: fset.Position(pos).String(), pkg: pkg, recv: recv,
			name: name, body: body, imports: imports,
		}
		d.root = pkg == harnessPackage || name == "_" || name == "init" ||
			(isMain && name == "main" && recv == "") ||
			(public && ast.IsExported(name) && (recv == "" || ast.IsExported(recv[len(pkg)+1:])))
		m.decls = append(m.decls, d)
		m.byKey[key] = append(m.byKey[key], d)
		if recv != "" {
			m.byRecv[recv] = append(m.byRecv[recv], d)
			m.byName[name] = append(m.byName[name], d)
		}
	}
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			recv := ""
			if gd.Recv != nil && len(gd.Recv.List) == 1 {
				recv = pkg + "." + baseTypeName(gd.Recv.List[0].Type)
			}
			add(gd.Name.Name, recv, gd.Name.Pos(), gd)
		case *ast.GenDecl:
			// An implicitly repeated constant spec reaches the type and
			// values of the last explicit one.
			var lastType ast.Expr
			var lastValues []ast.Expr
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name.Name, "", spec.Name.Pos(), spec)
					if spec.Assign.IsValid() {
						if target := typeKey(spec.Type, pkg, imports); target != "" {
							m.aliases[pkg+"."+spec.Name.Name] = target
						}
					}
					if public && ast.IsExported(spec.Name.Name) {
						m.allMeths[pkg+"."+spec.Name.Name] = true
					}
				case *ast.ValueSpec:
					if gd.Tok == token.CONST && spec.Type == nil && spec.Values == nil {
						spec.Type, spec.Values = lastType, lastValues
					}
					lastType, lastValues = spec.Type, spec.Values
					for _, n := range spec.Names {
						add(n.Name, "", n.Pos(), spec)
					}
				}
			}
		}
	}
}

// typeKey names the module type an alias's right-hand side denotes, or ""
// when it is not a named module type.
func typeKey(e ast.Expr, pkg string, imports map[string]string) string {
	switch e := e.(type) {
	case *ast.Ident:
		return pkg + "." + e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
			return imports[x.Name] + "." + e.Sel.Name
		}
	case *ast.IndexExpr:
		return typeKey(e.X, pkg, imports)
	case *ast.IndexListExpr:
		return typeKey(e.X, pkg, imports)
	}
	return ""
}

// baseTypeName strips pointers and type parameters from a receiver type.
func baseTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// unreached runs the reachability fixpoint and returns the unreached
// declarations under internal/, sorted by key.
func (m *module) unreached() []*decl {
	// An exported type alias re-exports its target's exported methods.
	for key := range m.allMeths {
		for target, ok := m.aliases[key]; ok; target, ok = m.aliases[target] {
			m.allMeths[target] = true
		}
	}
	var work []*decl
	reach := func(d *decl) {
		if !d.reached {
			d.reached = true
			work = append(work, d)
		}
	}
	reachMethods := func(recv string) {
		for _, meth := range m.byRecv[recv] {
			if m.selected[meth.name] || implicitMethods[meth.name] ||
				(m.allMeths[recv] && ast.IsExported(meth.name)) {
				reach(meth)
			}
		}
	}
	for _, d := range m.decls {
		if d.root {
			reach(d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		if d.recv != "" {
			for _, typ := range m.byKey[d.recv] {
				reach(typ)
			}
		} else if len(m.byRecv[d.key]) > 0 {
			reachMethods(d.key)
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if path := d.imports[x.Name]; path != "" {
						for _, to := range m.byKey[path+"."+n.Sel.Name] {
							reach(to)
						}
					}
				}
				if !m.selected[n.Sel.Name] {
					m.selected[n.Sel.Name] = true
					for _, meth := range m.byName[n.Sel.Name] {
						for _, typ := range m.byKey[meth.recv] {
							if typ.reached {
								reach(meth)
							}
						}
					}
				}
				// The selected name is a field, method or another
				// package's name, never one of this package's.
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				for _, to := range m.byKey[d.pkg+"."+n.Name] {
					reach(to)
				}
			}
			return true
		}
		ast.Inspect(d.body, visit)
	}
	var dead []*decl
	for _, d := range m.decls {
		if !d.reached && strings.Contains(d.pkg+"/", "/internal/") {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	return dead
}

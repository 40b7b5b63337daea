package prefillonly

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed names exported methods under internal/ that only tests
// call but that stay, each with its reason. Keys are
// "<path under internal/>.<Recv>.<Name>".
var testOnlyAllowed = map[string]string{
	"ringbuf.Ring.Cap": "instrument: the ring-capacity pins in sched, " +
		"engine and kvcache read it, and an export_test.go file cannot " +
		"reach across packages",
	"kvcache.Manager.CheckInvariants": "instrument: sched's equivalence " +
		"test checks the cache's invariants after every seeded script",
}

// TestNoTestOnlyExports fails on every exported function or method
// declared under internal/ whose name no non-test file of the module
// uses, benchmark/ included. Such code runs only under tests: delete it,
// or move it into a test file. Methods of types the root package
// re-exports with `type X = …` are library API and exempt; so are the
// entries of testOnlyAllowed.
//
// The scan matches names, not objects, so a name used for something
// else (a field, a type, another method) hides an unused declaration.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ owner, name, pos string } // owner: "<pkg>" or "<pkg>.<Recv>"
	var decls []decl
	used := map[string]bool{}
	aliased := map[string]bool{} // "<path under internal/>.<Type>"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			collectAliases(f, aliased)
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			pkg, ok := strings.CutPrefix(dir, "internal/")
			if !ok || !fn.Name.IsExported() {
				continue
			}
			owner := pkg
			if fn.Recv != nil {
				owner += "." + recvType(fn.Recv.List[0].Type)
			}
			decls = append(decls, decl{owner, fn.Name.Name, fset.Position(fn.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, d := range decls {
		key := d.owner + "." + d.name
		if used[d.name] || aliased[d.owner] || testOnlyAllowed[key] != "" {
			continue
		}
		bad = append(bad, key+" ("+d.pos+")")
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("only tests use %s: delete it or move it into a test file", b)
	}
}

// collectAliases adds "<path under internal/>.<Type>" for each
// `type X = pkg.Type` in f whose pkg is imported from repro/internal/.
func collectAliases(f *ast.File, aliased map[string]bool) {
	imports := map[string]string{} // local name → path under internal/
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		rel, ok := strings.CutPrefix(p, "repro/internal/")
		if !ok {
			continue
		}
		local := rel[strings.LastIndexByte(rel, '/')+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = rel
	}
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || !ts.Assign.IsValid() {
			return true
		}
		if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
				aliased[imports[pkg.Name]+"."+sel.Sel.Name] = true
			}
		}
		return true
	})
}

// recvType returns the name of a method receiver's base type.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
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

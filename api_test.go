package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAPIAllowlist names declarations that stay although no non-test
// file references them, keyed like TestNoTestOnlyAPI's report ("dir.Name",
// methods "dir.Type.Name"), each mapped to the one-line reason it stays.
var testOnlyAPIAllowlist = map[string]string{}

// TestNoTestOnlyAPI pins the rule that non-test code has a non-test
// caller: every top-level function, method, type and package-level var
// of the module must be referenced from some non-test file outside its
// own declaration. The scan parses the module's non-test files plus
// bench/, whose harness is a real caller although it is a separate
// module. References match by name: a method is reached by any
// identifier of its name (a call, a selector or an interface method),
// and a function, type or var by an identifier in its own package or a
// selector on an import of its package. A method's receiver is no use
// of its type, so a type that only tests use fails although it has
// methods. main, init and the test-helper package
// internal/trace/tracetest are exempt.
func TestNoTestOnlyAPI(t *testing.T) {
	type decl struct {
		key        string // as reported, e.g. "internal/cluster.Cell.Place"
		use        string // the uses key that reaches it
		start, end token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "bench" || dir == "internal/trace/tracetest" {
			return nil
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				switch {
				case d.Recv != nil:
					key := dir + "." + recvIdent(d.Recv.List[0].Type).Name + "." + name
					decls = append(decls, decl{key, "." + name, d.Pos(), d.End()})
				case name != "main" && name != "init":
					decls = append(decls, decl{dir + "." + name, dir + "." + name, d.Pos(), d.End()})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						key := dir + "." + s.Name.Name
						decls = append(decls, decl{key, key, s.Pos(), s.End()})
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if d.Tok == token.VAR && n.Name != "_" {
								key := dir + "." + n.Name
								decls = append(decls, decl{key, key, s.Pos(), s.End()})
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// uses maps ".Name" to every identifier of that name, "dir.Name" to
	// the unqualified ones in package dir, and "pkg.Name" to selectors
	// on an import of the module's package pkg.
	uses := map[string][]token.Pos{}
	for _, f := range files {
		dir := filepath.ToSlash(filepath.Dir(fset.Position(f.Pos()).Filename))
		imports := map[string]string{}
		for _, is := range f.Imports {
			path := strings.Trim(is.Path.Value, `"`)
			name := path[strings.LastIndex(path, "/")+1:]
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = path
		}
		qualified, receivers := map[*ast.Ident]bool{}, map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					receivers[recvIdent(n.Recv.List[0].Type)] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := strings.CutPrefix(imports[x.Name], "repro/"); ok {
						key := pkg + "." + n.Sel.Name
						uses[key] = append(uses[key], n.Sel.Pos())
						qualified[n.Sel] = true
					}
				}
			case *ast.Ident:
				if receivers[n] {
					break
				}
				uses["."+n.Name] = append(uses["."+n.Name], n.Pos())
				if !qualified[n] {
					uses[dir+"."+n.Name] = append(uses[dir+"."+n.Name], n.Pos())
				}
			}
			return true
		})
	}

	var unused []string
	for _, d := range decls {
		referenced := false
		for _, p := range uses[d.use] {
			if p < d.start || p >= d.end {
				referenced = true
				break
			}
		}
		_, allowed := testOnlyAPIAllowlist[d.key]
		switch {
		case !referenced && !allowed:
			unused = append(unused, d.key+" ("+fset.Position(d.start).String()+")")
		case referenced && allowed:
			t.Errorf("allowlist entry %s is stale: non-test code references it", d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: no non-test file references it; delete it or move it into a _test.go file", u)
	}
}

// recvIdent returns the identifier naming a method receiver's type,
// without pointer or type parameters.
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return x.(*ast.Ident)
		}
	}
}

package sbgp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// internalAPIAllowed lists the exported internal/ functions and methods
// that no non-test file calls by name, keyed pkg.Func or pkg.Recv.Method,
// each with the reason it stays in non-test code.
var internalAPIAllowed = map[string]string{
	"routing.Reference":               "oracle of routing's in-package tests and of sim's; a helper package would be an import cycle for routing's own tests",
	"sim.MustNew":                     "test constructor shared by five packages' tests",
	"routing.SharedStaticCache.Full":  "tests read the full latch through it",
	"routing.StreamStatic.Parents":    "stream accessor read by stream tests until stream.go goes",
	"routing.StreamStatic.Types":      "stream accessor read by stream tests until stream.go goes",
	"routing.StreamStatic.AnySecure":  "stream accessor read by stream tests until stream.go goes",
	"routing.StreamStatic.Reachable":  "stream accessor read by stream tests until stream.go goes",
	"routing.StreamStatic.IsCustomer": "stream accessor read by stream tests until stream.go goes",
}

// internalAPIExempt names methods that standard interfaces call, so a
// name search cannot see their callers.
var internalAPIExempt = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true,
}

// internalDecl is one exported function or method declared under
// internal/.
type internalDecl struct {
	key        string // pkg.Func or pkg.Recv.Method
	name       string
	pos        string // file:line
	start, end token.Pos
}

// TestInternalAPIHasCallers checks that every exported function and
// method declared in a non-test file under internal/ is referenced by
// name from a non-test file elsewhere than its own declaration, so that
// production code is only what production reaches: test-only helpers
// belong in _test.go files. It matches names, not receivers, so a
// method that shares its name with a called one passes unseen.
func TestInternalAPIHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	var decls []internalDecl
	refs := map[string][]token.Pos{} // every identifier of a non-test file, by name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				refs[id.Name] = append(refs[id.Name], id.Pos())
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") || strings.HasSuffix(f.Name.Name, "test") {
			return nil
		}
		for _, dcl := range f.Decls {
			fn, ok := dcl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || internalAPIExempt[fn.Name.Name] {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				key = f.Name.Name + "." + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, internalDecl{
				key:   key,
				name:  fn.Name.Name,
				pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(path), fset.Position(fn.Pos()).Line),
				start: fn.Pos(),
				end:   fn.End(),
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// referenced reports whether an identifier outside the declaration
	// spells its name.
	referenced := func(dcl internalDecl) bool {
		for _, pos := range refs[dcl.name] {
			if pos < dcl.start || pos >= dcl.end {
				return true
			}
		}
		return false
	}
	declared := map[string]bool{}
	var offenders []string
	for _, dcl := range decls {
		declared[dcl.key] = true
		_, allowed := internalAPIAllowed[dcl.key]
		switch used := referenced(dcl); {
		case used && allowed:
			offenders = append(offenders, fmt.Sprintf("%s: %s is allowlisted but now has a non-test caller; drop its entry", dcl.pos, dcl.key))
		case !used && !allowed:
			offenders = append(offenders, fmt.Sprintf("%s: %s has no non-test caller; move it to a _test.go file or delete it", dcl.pos, dcl.key))
		}
	}
	for key := range internalAPIAllowed {
		if !declared[key] {
			offenders = append(offenders, fmt.Sprintf("allowlist entry %s names no exported declaration under internal/; drop it", key))
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Error(o)
	}
}

// recvTypeName returns the type name of a method receiver, without
// pointer or type parameters.
func recvTypeName(e ast.Expr) string {
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
			return fmt.Sprintf("%T", e)
		}
	}
}

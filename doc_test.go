package sbgp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goNames collects every name declared in the tree's Go files: package,
// func, method, type, field, const and var names, and the names a :=
// statement introduces.
func goNames(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names[f.Name.Name] = true
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				names[n.Name.Name] = true
			case *ast.TypeSpec:
				names[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					for _, e := range n.Lhs {
						if id, ok := e.(*ast.Ident); ok {
							names[id.Name] = true
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

var (
	// backticked matches a backticked span in Markdown.
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// qualifiedIdent matches a possibly dot-qualified Go identifier with
	// an optional trailing ().
	qualifiedIdent = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$`)
	// fileName matches the file names the docs cite.
	fileName = regexp.MustCompile(`\.(go|json|bin)$`)
	// metricName matches a snake_case metric name, qualified or not.
	metricName = regexp.MustCompile(`^[a-z0-9_.]*_[a-z0-9_.]*$`)
)

// citesGoIdent reports whether a backticked span reads as a Go
// identifier: a qualified identifier, optionally called, that holds a
// capital letter, a dot or (), and is not a file or metric name.
func citesGoIdent(s string) bool {
	if !qualifiedIdent.MatchString(s) || fileName.MatchString(s) || metricName.MatchString(s) {
		return false
	}
	return strings.ToLower(s) != s || strings.ContainsAny(s, ".(")
}

// TestDocIdentifiersExist checks that every Go identifier DESIGN.md and
// README.md cite in backticks names something declared in the tree, so
// the docs cannot go on describing code that was renamed or deleted.
// Each part of a qualified name (pkg.Func, recv.field) must be declared.
func TestDocIdentifiersExist(t *testing.T) {
	names := goNames(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				if !citesGoIdent(m[1]) {
					continue
				}
				for _, part := range strings.Split(strings.TrimSuffix(m[1], "()"), ".") {
					if !names[part] {
						t.Errorf("%s:%d: `%s` names no declared identifier (%s)", doc, i+1, m[1], part)
					}
				}
			}
		}
	}
}

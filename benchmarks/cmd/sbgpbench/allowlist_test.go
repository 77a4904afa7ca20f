package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// The harness may use only this slice of the simulator's packages, so
// that ROADMAP item 2 can delete cache tiers and knobs without editing
// the benchmark: the functions ISSUE 11 lists, plus the types needed to
// call them. Methods on those types are not package selectors and are
// not checked here.
var allowedSelectors = map[string][]string{
	"sbgp/internal/topogen":     {"Generate", "Default"},
	"sbgp/internal/asgraph":     {"Write", "Read", "Fingerprint", "Graph"},
	"sbgp/internal/adopters":    {"Parse"},
	"sbgp/internal/routing":     {"NewWorkspace", "AppendPacked", "NewStreamStatic", "OpenStaticDiskStore", "CloseSharedDiskStores", "Tiebreaker", "HashTiebreaker", "Tree", "Static"},
	"sbgp/internal/sim":         {"New", "WriteResult", "ReadResult", "DeriveBreaks", "Config", "Result", "RoundStats", "Sim", "Outgoing", "Incoming"},
	"sbgp/internal/dist":        {"MaybeRunWorker", "NewLocalCoordinator", "NewCoordinator", "ServeConn", "Options", "Conn", "Coordinator"},
	"sbgp/internal/experiments": {"RunBatch", "DefaultOptions", "BatchOptions", "RunStatus"},
	"sbgp/internal/metrics":     {"ScanTurnOff", "ComputeSecurePaths", "ComputeTiebreakDist"},
}

// allowedConfigKeys are the fields a sim.Config or experiments
// BatchOptions literal in the harness may set.
var allowedConfigKeys = []string{
	"Model", "Theta", "EarlyAdopters", "StubsBreakTies", "Tiebreaker", "Workers", "StaticStoreDir", "RecordStats", "Executor",
	"Options", "Parallel", "OutDir", "JSON", "Force",
}

// forbiddenNames must not appear in the harness at all: the cache tiers
// and measurement knobs ROADMAP item 2 means to delete. StaticCacheBytes
// is also a RoundStats counter the harness reads, so it is only barred
// from being set.
var forbiddenNames = []string{
	"StaticCache", "NewStaticCache", "NewStaticCacheFor", "SharedStaticCache", "NewSharedStaticCache",
	"SharedStatics", "StaticPrefetch", "DynamicCacheBytes", "NoProjectionBatch", "NoPackedStatics", "NoStreamResolve",
}

func nameSet(names []string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestStableAPISurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys, forbidden := nameSet(allowedConfigKeys), nameSet(forbiddenNames)
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			// Local package name -> import path, for the simulator's
			// packages only.
			imports := map[string]string{}
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(path, "sbgp/") {
					continue
				}
				if _, ok := allowedSelectors[path]; !ok {
					t.Errorf("%s: imports %s, which is not on the allowlist", name, path)
					continue
				}
				local := path[strings.LastIndex(path, "/")+1:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = path
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if forbidden[n.Name] {
						t.Errorf("%s: uses %s", fset.Position(n.Pos()), n.Name)
					}
				case *ast.SelectorExpr:
					// id.Obj is nil for a package name, set for a local
					// variable that happens to shadow one.
					if id, ok := n.X.(*ast.Ident); ok && id.Obj == nil {
						if path, ok := imports[id.Name]; ok && !nameSet(allowedSelectors[path])[n.Sel.Name] {
							t.Errorf("%s: %s.%s is not on the allowlist", fset.Position(n.Pos()), id.Name, n.Sel.Name)
						}
					}
				case *ast.CompositeLit:
					sel, ok := n.Type.(*ast.SelectorExpr)
					if !ok || (sel.Sel.Name != "Config" && sel.Sel.Name != "BatchOptions") {
						break
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && !keys[key.Name] {
								t.Errorf("%s: sets %s.%s, which is not on the allowlist", fset.Position(kv.Pos()), sel.Sel.Name, key.Name)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "StaticCacheBytes" {
							t.Errorf("%s: sets StaticCacheBytes", fset.Position(sel.Pos()))
						}
					}
				}
				return true
			})
		}
	}
}

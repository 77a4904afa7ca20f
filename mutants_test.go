package sbgp

import (
	"errors"
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var runMutants = flag.Bool("mutants", false, "run the mutation ledger (TestMutants): every recorded mutant must fail its tests")

// mutant is one row of the mutation ledger: a deliberate bug that the
// tests named by run, in package pkg, must catch. old must occur exactly
// once in file; new replaces it.
type mutant struct {
	name     string
	file     string
	old, new string
	pkg, run string
}

// ledger holds the mutants the tests must kill. A change that adds a
// fast path adds the mutants its tests are meant to kill; a refactor
// that moves a mutated text carries its row along, since a row whose
// old text no longer matches fails the ledger.
var ledger = []mutant{
	{
		name: "splice keeps the filler's type codes",
		file: "internal/routing/splice.go",
		old:  "dst[tOut+q>>2] = dst[tOut+q>>2]&^(3<<sh) | c<<sh",
		new:  "dst[tOut+q>>2] = dst[tOut+q>>2] | 0*c<<sh",
		pkg:  "./internal/routing", run: "^TestSpliceLeafMatchesBuild$",
	},
	{
		name: "shard engine skips config validation",
		file: "internal/sim/shardengine.go",
		old:  "\tif err := cfg.validate(g.N()); err != nil {\n\t\treturn nil, err\n\t}\n\te := &ShardEngine{",
		new:  "\te := &ShardEngine{",
		pkg:  "./internal/dist", run: "^TestWorkerRejectsNegativeBudget$",
	},
	{
		name: "a 1-byte budget is the default",
		file: "internal/sim/shardengine.go",
		old:  "\tif budget == 0 {\n\t\tbudget = routing.DefaultCacheBytes",
		new:  "\tif budget <= 1 {\n\t\tbudget = routing.DefaultCacheBytes",
		pkg:  "./internal/sim", run: "^TestPlainEngineCounters$",
	},
	{
		name: "disk blobs decode trusted",
		file: "internal/sim/engine.go",
		old:  "wk.ws.DecodePacked(b)",
		new:  "wk.ws.DecodePackedTrusted(b)",
		pkg:  "./internal/sim", run: "^TestDiskStoreValidatesForeignBlob$",
	},
	{
		name: "every claim row is lane-uniform",
		file: "internal/routing/batch.go",
		old:  "split = split || rm != m",
		new:  "split = split && rm != m",
		pkg:  "./internal/routing", run: "^TestStaticBatchNonUniformRows$",
	},
	{
		name: "round key drops the shard count",
		file: "internal/sim/roundmemo.go",
		old:  "\tb = binary.AppendUvarint(b, uint64(s.exec.TotalShards()))\n",
		new:  "\tb = binary.AppendUvarint(b, 0)\n",
		pkg:  "./internal/sim", run: "^TestRoundMemoResultInvariant$",
	},
	{
		name: "round key drops ProjectStubUpgrades",
		file: "internal/sim/roundmemo.go",
		old:  "[]bool{s.cfg.StubsBreakTies, s.cfg.ProjectStubUpgrades, pristine}",
		new:  "[]bool{s.cfg.StubsBreakTies, false, pristine}",
		pkg:  "./internal/sim", run: "^TestRoundMemoResultInvariant$",
	},
	{
		name: "round memo skips the key comparison",
		file: "internal/routing/roundmemo.go",
		old:  "if bytes.Equal(e.key, key) {",
		new:  "if bytes.Equal(e.key, e.key) {",
		pkg:  "./internal/routing", run: "^TestRoundMemoPutGet$",
	},
	{
		name: "plan leaves record holders' statics unplanned",
		file: "internal/sim/engine.go",
		old:  "p.build = !p.sidecar && !classReplay && !wk.statics.Has(d)",
		new:  "p.build = !p.sidecar && !classReplay && p.rec == nil && !wk.statics.Has(d)",
		pkg:  "./internal/sim", run: "^TestPlanBuildsRecordHoldersStatics$",
	},
	{
		name: "records skip change propagation across a jump of more than N/3",
		file: "internal/sim/engine.go",
		old:  "\tif rc.treeStill(rec.dest) {\n\t\treturn false\n\t}",
		new:  "\tif rc.treeStill(rec.dest) || len(rc.flipList) > len(rc.st.secure)/3 {\n\t\treturn false\n\t}",
		pkg:  "./internal/sim", run: "^TestReusedSimMatchesFresh$",
	},
	{
		name: "a class filler replays its record's base",
		file: "internal/sim/engine.go",
		old:  "if baseValid && fill == nil {",
		new:  "if baseValid {",
		pkg:  "./internal/sim", run: "^TestRoundCountersPinned$",
	},
	{
		name: "static core never switches to packed",
		file: "internal/routing/staticcache.go",
		old:  "\t\tc.repacked = true\n",
		new:  "\t\tc.repacked = false\n",
		pkg:  "./internal/routing", run: "^TestStaticCachePackedRepack$",
	},
}

// TestMutants is the mutation ledger. For each row it copies the module
// into a temporary directory, applies the mutant and runs the row's
// tests, which must fail. A mutant that does not compile, or whose old
// text no longer occurs exactly once, fails the ledger itself: a check
// that cannot tell "killed" from "did not build" proves nothing. It runs
// only with -mutants, a few seconds to half a minute per row:
//
//	go test -run TestMutants -mutants -v .
func TestMutants(t *testing.T) {
	if !*runMutants {
		t.Skip("the mutation ledger runs only with -mutants")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ledger {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			copyModule(t, root, dir)
			path := filepath.Join(dir, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if k := strings.Count(string(src), m.old); k != 1 {
				t.Fatalf("old text occurs %d times in %s, want once: the row is stale", k, m.file)
			}
			mutated := strings.Replace(string(src), m.old, m.new, 1)
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			if out, err := goTest(dir, m.pkg, "^$"); err != nil {
				t.Fatalf("mutant does not build:\n%s", out)
			}
			out, err := goTest(dir, m.pkg, m.run)
			var exit *exec.ExitError
			switch {
			case err == nil:
				t.Errorf("mutant survived %s -run %s:\n%s", m.pkg, m.run, out)
			case !errors.As(err, &exit):
				t.Fatalf("go test did not run: %v", err)
			}
		})
	}
}

// goTest runs the tests of pkg matching run in the module at dir.
func goTest(dir, pkg, run string) ([]byte, error) {
	cmd := exec.Command("go", "test", "-count=1", "-run", run, pkg)
	cmd.Dir = dir
	return cmd.CombinedOutput()
}

// copyModule copies the module's files from src to dst, leaving out
// hidden directories, the benchmark module and local run output.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "benchmarks" || rel == "results") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

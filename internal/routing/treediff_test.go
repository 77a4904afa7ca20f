package routing

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
	"sbgp/internal/topogen"
)

// dirtyTree overwrites every entry of t with junk, so a load that skips
// an entry shows up as a mismatch.
func dirtyTree(rng *rand.Rand, t *Tree, n int) {
	for i := 0; i < n; i++ {
		t.Parent[i] = int32(rng.Intn(n+1)) - 1
		t.Secure[i] = rng.Intn(2) == 0
	}
}

// diffRoundtrips stores want against s, loads it against load (s itself,
// or a decode of s) into a dirtied tree, and reports whether every entry
// came back; an insecure destination must store zero words.
func diffRoundtrips(t *testing.T, rng *rand.Rand, label string, s, load *Static, want *Tree, df *TreeDiff, n int) bool {
	t.Helper()
	s.StoreDiff(df, want)
	if !want.Secure[s.Dest] && df.Bytes() != 0 {
		t.Logf("%s: insecure destination stored %d bytes", label, df.Bytes())
		return false
	}
	var got Tree
	got.Clear(n)
	dirtyTree(rng, &got, n)
	load.LoadDiff(&got, df)
	if got.Dest != want.Dest || !treesEqual(&got, want, n) {
		t.Logf("%s: loaded tree differs from the stored one", label)
		return false
	}
	return true
}

// diffsMatch reports whether committed, a diff CommitDiff advanced to t,
// decodes to t and holds exactly what a fresh StoreDiff of t holds: the
// same bitset words and the same overrides, in any order.
func diffsMatch(t *testing.T, rng *rand.Rand, s *Static, want *Tree, committed *TreeDiff, n int) bool {
	t.Helper()
	var got Tree
	got.Clear(n)
	dirtyTree(rng, &got, n)
	s.LoadDiff(&got, committed)
	var fresh TreeDiff
	s.StoreDiff(&fresh, want)
	pairs := func(over []int32) map[[2]int32]bool {
		m := map[[2]int32]bool{}
		for k := 0; k < len(over); k += 2 {
			m[[2]int32{over[k], over[k+1]}] = true
		}
		return m
	}
	switch {
	case !treesEqual(&got, want, n):
		t.Logf("committed diff decodes to a different tree")
	case !slices.Equal(committed.sec, fresh.sec):
		t.Logf("committed bitset %x, fresh %x", committed.sec, fresh.sec)
	case len(committed.over) != len(fresh.over) || !maps.Equal(pairs(committed.over), pairs(fresh.over)):
		t.Logf("committed overrides %v, fresh %v", committed.over, fresh.over)
	default:
		return true
	}
	return false
}

// TestQuickTreeDiffRoundtrip: StoreDiff then LoadDiff reproduces a
// resolved tree bit for bit — every Parent and Secure entry over all n,
// unreachable nodes included — for random states with the destination
// secure and insecure, and when loading against a packed decode of the
// static the diff was stored against (a record's next round may read
// either). A diff CommitDiff carries across a committed ApplyFlips holds
// exactly what storing the advanced tree afresh would. One TreeDiff is
// reused throughout, as a record reuses its own.
func TestQuickTreeDiffRoundtrip(t *testing.T) {
	var overrides int
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *asgraph.Graph
		if seed%3 == 0 {
			g = topogen.MustGenerate(topogen.Default(60+rng.Intn(100), seed))
		} else {
			g = asgraphtest.Random(rng, 4+rng.Intn(24), 0.15, 0.1, 0.25)
		}
		n := g.N()
		tb := HashTiebreaker{Seed: uint64(seed)}
		w, wDec := NewWorkspace(g), NewWorkspace(g)
		sec, brk := asgraphtest.RandomState(rng, n, 0.3+0.5*rng.Float64(), 0.7)
		var df TreeDiff
		var tree Tree
		for trial := 0; trial < 8; trial++ {
			d := int32(rng.Intn(n))
			s := w.PrepareDest(d, tb)
			dec, err := wDec.DecodePacked(AppendPacked(nil, s, g))
			if err != nil {
				t.Logf("seed %d dest %d: decode failed: %v", seed, d, err)
				return false
			}
			for _, dSec := range []bool{true, false} {
				sec[d], brk[d] = dSec, dSec
				tree.Clear(n)
				w.ResolveInto(&tree, s, sec, brk, nil, nil, tb)
				if !diffRoundtrips(t, rng, "resolved", s, s, &tree, &df, n) ||
					!diffRoundtrips(t, rng, "resolved, decoded static", s, dec, &tree, &df, n) {
					t.Logf("seed %d dest %d secure %v", seed, d, dSec)
					return false
				}
				overrides += len(df.over) / 2
				// df now encodes tree: advance both by a committed flip set.
				flipped, flipBreaks, list := randomFlips(rng, n, d)
				w.ApplyFlips(&tree, s, sec, brk, flipped, flipBreaks, list, tb)
				w.CommitDiff(&df, s, &tree)
				if !diffsMatch(t, rng, s, &tree, &df, n) ||
					!diffRoundtrips(t, rng, "advanced", s, s, &tree, &df, n) {
					t.Logf("seed %d dest %d secure %v", seed, d, dSec)
					return false
				}
				overrides += len(df.over) / 2
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	if overrides == 0 {
		t.Error("no tree anywhere had a parent SecP moved off its winner: the override path went unexercised")
	}
}

// TestTreeDiffDeepChains: the diff is node-indexed, so path length must
// not matter — TestPackedDeepChain's 300-level provider chain (singleton
// rows, no overrides) and a 280-rung two-rail ladder whose width-2 rows
// give SecP a choice past the 254-level byte-shadow limit.
func TestTreeDiffDeepChains(t *testing.T) {
	const depth = 300
	chain := asgraph.NewBuilder()
	for i := int32(0); i < depth; i++ {
		chain.AddAS(i + 1)
	}
	for i := int32(0); i+1 < depth; i++ {
		chain.AddCustomer(i+1, i+2)
	}
	const rungs = 280
	ladder := asgraph.NewBuilder()
	for i := int32(1); i < rungs; i++ {
		ladder.AddCustomer(2*(i+1), 2*i).AddCustomer(2*(i+1)+1, 2*i)
		ladder.AddCustomer(2*(i+1), 2*i+1).AddCustomer(2*(i+1)+1, 2*i+1)
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		name string
		g    *asgraph.Graph
		dest int32 // ASN
	}{
		{"chain", chain.MustBuild(), depth},
		{"ladder", ladder.MustBuild(), 2},
	} {
		g, n := c.g, c.g.N()
		tb := HashTiebreaker{Seed: 5}
		w := NewWorkspace(g)
		s := w.PrepareDest(g.Index(c.dest), tb)
		var df TreeDiff
		var tree Tree
		overrides := 0
		for trial := 0; trial < 20; trial++ {
			sec, brk := asgraphtest.RandomState(rng, n, 0.7, 0.8)
			sec[s.Dest] = trial%4 != 3
			tree.Clear(n)
			w.ResolveInto(&tree, s, sec, brk, nil, nil, tb)
			if !diffRoundtrips(t, rng, c.name, s, s, &tree, &df, n) {
				t.Fatalf("%s trial %d", c.name, trial)
			}
			overrides += len(df.over) / 2
		}
		if c.name == "ladder" && overrides == 0 {
			t.Error("ladder: no parent moved off its winner")
		}
	}
}

package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sbgp/internal/asgraph/asgraphtest"
)

// The testing/quick properties treat a random seed as the generated
// input: each seed deterministically expands into a random graph, a
// random deployment state and a tiebreaker, so failures reproduce.

// TestQuickTreeInvariants: every resolved tree on every destination
// satisfies the full VerifyTree invariant set (valley-freedom, GR2,
// length consistency, security soundness).
func TestQuickTreeInvariants(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 4+rng.Intn(18), 0.15, 0.1, 0.25)
		sec, brk := asgraphtest.RandomState(rng, g.N(), 0.5, 0.7)
		tb := HashTiebreaker{Seed: uint64(seed)}
		w := NewWorkspace(g)
		var tree Tree
		for d := int32(0); d < int32(g.N()); d++ {
			s := w.ComputeStatic(d)
			tree.Clear(g.N())
			w.ResolveInto(&tree, s, sec, brk, nil, nil, tb)
			if err := VerifyTree(g, s, &tree, sec); err != nil {
				t.Logf("seed %d dest %d: %v", seed, d, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickFlippedTreeInvariants: projected trees (single-node flips)
// satisfy the same invariants under the flipped state.
func TestQuickFlippedTreeInvariants(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 4+rng.Intn(14), 0.15, 0.1, 0.25)
		sec, brk := asgraphtest.RandomState(rng, g.N(), 0.5, 0.7)
		tb := HashTiebreaker{Seed: uint64(seed)}
		w := NewWorkspace(g)
		var tree Tree
		flip := int32(rng.Intn(g.N()))
		flipped := make([]bool, g.N())
		flipped[flip] = true
		flippedSec := append([]bool(nil), sec...)
		flippedSec[flip] = !flippedSec[flip]
		for d := int32(0); d < int32(g.N()); d++ {
			s := w.ComputeStatic(d)
			tree.Clear(g.N())
			w.ResolveInto(&tree, s, sec, brk, flipped, nil, tb)
			if err := VerifyTree(g, s, &tree, flippedSec); err != nil {
				t.Logf("seed %d dest %d flip %d: %v", seed, d, flip, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickIncrementalResolution: the incremental projection strategy —
// change propagation (PrepareDelta/ApplyFlips) — must produce trees
// bit-identical to a full ResolveInto with the same flip set, its
// parents-changed report must match an explicit comparison against the
// base tree, and RevertFlips must restore the base tree exactly.
// Exercised over random graphs, states, multi-node flip sets with
// per-node tie-break policies, and both the plain and PrepareDest
// (precomputed-winner) static paths.
func TestQuickIncrementalResolution(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 4+rng.Intn(18), 0.15, 0.1, 0.25)
		n := g.N()
		sec, brk := asgraphtest.RandomState(rng, n, 0.5, 0.7)
		tb := HashTiebreaker{Seed: uint64(seed)}
		w := NewWorkspace(g)

		flipped := make([]bool, n)
		var flipBreaks []bool
		if rng.Float64() < 0.8 {
			flipBreaks = make([]bool, n)
		}
		var flipList []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.25 {
				flipped[i] = true
				if flipBreaks != nil {
					flipBreaks[i] = rng.Float64() < 0.5
				}
				flipList = append(flipList, int32(i))
			}
		}
		if len(flipList) == 0 {
			f := int32(rng.Intn(n))
			flipped[f] = true
			flipList = append(flipList, f)
		}

		var base, full, delta Tree
		for d := int32(0); d < int32(n); d++ {
			var s *Static
			if d%2 == 0 {
				s = w.PrepareDest(d, tb)
			} else {
				s = w.ComputeStatic(d)
			}
			base.Clear(n)
			w.ResolveInto(&base, s, sec, brk, nil, nil, tb)
			full.Clear(n)
			w.ResolveInto(&full, s, sec, brk, flipped, flipBreaks, tb)

			w.PrepareDelta(s)
			delta.CopyFrom(&base)
			changed, _ := w.ApplyFlips(&delta, s, sec, brk, flipped, flipBreaks, flipList, tb)
			if !treesEqual(&delta, &full, n) {
				t.Logf("seed %d dest %d: propagated tree differs from full resolution", seed, d)
				return false
			}
			if changed == parentsEqual(&delta, &base, n) {
				t.Logf("seed %d dest %d: changed=%v contradicts explicit comparison", seed, d, changed)
				return false
			}
			w.RevertFlips(&delta)
			if !treesEqual(&delta, &base, n) {
				t.Logf("seed %d dest %d: RevertFlips did not restore the base tree", seed, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickFlipPrediction: the batched projection predictor
// (PrepareFlipEffects / FlipChangesTree) must be safe — whenever it
// predicts a single-node flip leaves every parent in place, actually
// propagating the flip must report no parent change (the skipped
// projection's delta is then exactly zero). The reverse direction may
// over-approximate, but on single-flag ripples it should be rare; the
// property tracks it to guard against the predictor degenerating into
// "always true".
func TestQuickFlipPrediction(t *testing.T) {
	var predicted, actual int
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 4+rng.Intn(18), 0.15, 0.1, 0.25)
		n := g.N()
		sec, brk := asgraphtest.RandomState(rng, n, 0.5, 0.7)
		tb := HashTiebreaker{Seed: uint64(seed)}
		w := NewWorkspace(g)

		flipped := make([]bool, n)
		var base, proj Tree
		for d := int32(0); d < int32(n); d++ {
			s := w.PrepareDest(d, tb)
			base.Clear(n)
			w.ResolveInto(&base, s, sec, brk, nil, nil, tb)
			if d%2 == 0 {
				w.PrepareDelta(s) // optional: neither the predictor nor ApplyFlips needs it
			}
			w.PrepareFlipEffects(s, &base, sec, brk, tb)
			proj.CopyFrom(&base)
			for _, c := range s.Order() {
				// The engine only consults the predictor for candidates
				// whose projected policy is to break ties (ISPs); turned-off
				// nodes never break ties, matching ApplyFlips.
				pred := w.FlipChangesTree(s, &base, sec, brk, tb, c)
				flipped[c] = true
				changed, _ := w.ApplyFlips(&proj, s, sec, brk, flipped, nil, []int32{c}, tb)
				w.RevertFlips(&proj)
				flipped[c] = false
				if !pred && changed {
					t.Logf("seed %d dest %d cand %d: predicted unchanged but parents moved", seed, d, c)
					return false
				}
				if pred {
					predicted++
					if changed {
						actual++
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if predicted > 0 && actual*2 < predicted {
		t.Errorf("predictor over-approximates badly: %d predicted moves, only %d real", predicted, actual)
	}
}

func treesEqual(a, b *Tree, n int) bool {
	for i := 0; i < n; i++ {
		if a.Parent[i] != b.Parent[i] || a.Secure[i] != b.Secure[i] {
			return false
		}
	}
	return true
}

func parentsEqual(a, b *Tree, n int) bool {
	for i := 0; i < n; i++ {
		if a.Parent[i] != b.Parent[i] {
			return false
		}
	}
	return true
}

// TestQuickSecurityMonotone: adding secure ASes can never shrink the
// set of nodes with fully-secure paths (security is monotone in the
// deployment set for a fixed destination... note the *chosen* routes
// may differ, but the secure-flag count is monotone because SecP always
// finds a secure option if one is offered).
func TestQuickSecurityMonotone(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 4+rng.Intn(14), 0.15, 0.1, 0.25)
		sec, _ := asgraphtest.RandomState(rng, g.N(), 0.4, 1)
		brk := make([]bool, g.N())
		for i := range brk {
			brk[i] = true // everyone breaks ties
		}
		// Superset state: flip some insecure nodes on.
		sec2 := append([]bool(nil), sec...)
		for i := range sec2 {
			if !sec2[i] && rng.Float64() < 0.5 {
				sec2[i] = true
			}
		}
		tb := HashTiebreaker{Seed: uint64(seed)}
		w := NewWorkspace(g)
		var t1, t2 Tree
		for d := int32(0); d < int32(g.N()); d++ {
			s := w.ComputeStatic(d)
			t1.Clear(g.N())
			w.ResolveInto(&t1, s, sec, brk, nil, nil, tb)
			c1 := countSecure(&t1, s)
			t2.Clear(g.N())
			w.ResolveInto(&t2, s, sec2, brk, nil, nil, tb)
			c2 := countSecure(&t2, s)
			if c2 < c1 {
				t.Logf("seed %d dest %d: secure count dropped %d -> %d after adding deployers", seed, d, c1, c2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func countSecure(t *Tree, s *Static) int {
	n := 0
	for _, i := range s.Order() {
		if t.Secure[i] {
			n++
		}
	}
	return n
}

// TestQuickTiebreakerTotalOrder: HashTiebreaker induces a strict total
// order for every deciding node (irreflexive, antisymmetric,
// transitive on triples).
func TestQuickTiebreakerTotalOrder(t *testing.T) {
	property := func(seed uint64, node, a, b, c int32) bool {
		tb := HashTiebreaker{Seed: seed}
		if a != b && tb.Less(node, a, b) == tb.Less(node, b, a) {
			return false
		}
		if tb.Less(node, a, a) {
			return false
		}
		// Transitivity on the sampled triple.
		if a != b && b != c && a != c &&
			tb.Less(node, a, b) && tb.Less(node, b, c) && !tb.Less(node, a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

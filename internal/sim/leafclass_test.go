package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/topogen"
)

// unevenLeafGraph is a small hierarchy whose leaves carry weights that
// do not commute under float addition (1e16 + 1 + 0.1 depends on the
// order), with the leaves' ids interleaved among their provider's other
// children — a multi-homed stub, a peered stub, a customer ISP — so a
// fold of the provider's children in the wrong order, or with the
// swapped leaf inserted at the wrong place, changes bits.
func unevenLeafGraph() *asgraph.Graph {
	b := asgraph.NewBuilder()
	// Tier 1: 1 and 2 peer; 3 is a CP buying from both.
	b.AddPeer(1, 2).AddCustomer(1, 3).AddCustomer(2, 3).MarkCP(3)
	// Mid tier: 20 and 40 under 1, 60 under 2, 40 also under 2; 20–60 peer.
	b.AddCustomer(1, 20).AddCustomer(1, 40).AddCustomer(2, 40).AddCustomer(2, 60).AddPeer(20, 60)
	// 20's children: leaves 21, 23, 26, 27; multi-homed stub 22 (also
	// under 40); customer ISP 24 with leaves of its own; peered stub 25.
	for asn, w := range map[int32]float64{21: 0.1, 23: 1e16, 26: 1, 27: 3} {
		b.AddCustomer(20, asn).SetWeight(asn, w)
	}
	b.AddCustomer(20, 22).AddCustomer(40, 22).SetWeight(22, 0.3)
	b.AddCustomer(20, 24).AddCustomer(24, 30).AddCustomer(24, 31).SetWeight(30, 7).SetWeight(31, 1e-3)
	b.AddCustomer(20, 25).AddPeer(25, 41)
	// 40's children: stub 41 (peered with 25, so not a leaf), leaves 42,
	// 43, 45, and ISP 44 (also under 60) with two leaves of its own.
	b.AddCustomer(40, 41)
	for asn, w := range map[int32]float64{42: 1e16, 43: 0.1, 45: 0.5} {
		b.AddCustomer(40, asn).SetWeight(asn, w)
	}
	b.AddCustomer(40, 44).AddCustomer(60, 44).AddCustomer(44, 46).AddCustomer(44, 47)
	// 60's children: leaves 61, 62 and stub 63, which also buys from 20.
	b.AddCustomer(60, 61).AddCustomer(60, 62).SetWeight(62, 1e16)
	b.AddCustomer(60, 63).AddCustomer(20, 63)
	return b.MustBuild()
}

// randomSimplexState secures each ISP and CP with probability p and,
// as the game does, every stub customer of a secure ISP.
func randomSimplexState(rng *rand.Rand, g *asgraph.Graph, p float64, sbt bool) *deployState {
	st := newDeployState(g.N())
	for i := int32(0); i < int32(g.N()); i++ {
		if g.IsStub(i) || rng.Float64() >= p {
			continue
		}
		st.set(g, i, sbt)
		if g.IsISP(i) {
			for _, c := range g.Customers(i) {
				if g.IsStub(c) {
					st.set(g, c, sbt)
				}
			}
		}
	}
	return st
}

// siblingGroups lists the leaves of g by class — same provider, same
// deployment flags — keeping the classes with at least two members.
func siblingGroups(g *asgraph.Graph, st *deployState) [][]int32 {
	type class struct {
		prov           int32
		secure, breaks bool
	}
	idx := map[class]int{}
	var groups [][]int32
	for d, p := range leafProviders(g) {
		if p < 0 {
			continue
		}
		c := class{p, st.secure[d], st.breaks[d]}
		k, ok := idx[c]
		if !ok {
			k = len(groups)
			idx[c] = k
			groups = append(groups, nil)
		}
		groups[k] = append(groups[k], int32(d))
	}
	out := groups[:0]
	for _, grp := range groups {
		if len(grp) >= 2 {
			out = append(out, grp)
		}
	}
	return out
}

// TestLeafSiblingSymmetry pins the theorem the class rung rests on, on
// the unmodified processDest of a plain worker (tiers too small to hold
// a static, sidecar or record, and no class memo): for sibling leaves d, d' of provider p with equal flags,
// processDest(d) and processDest(d') into zeroed accumulators agree bit
// for bit at every index of uDelta and every index of uBase but p, and
// foldLeaf over the child list captured from d's tree reproduces
// uBase[p] of d'. Both models × StubsBreakTies × ProjectStubUpgrades,
// random mid-game states, non-integer CP weights, and a hand-built graph
// whose leaf weights make every fold order distinguishable. The
// "reference" half makes the structural claim against routing.Reference.
func TestLeafSiblingSymmetry(t *testing.T) {
	t.Run("processDest", leafSymmetryEngine)
	t.Run("reference", leafSymmetryReference)
}

func leafSymmetryEngine(t *testing.T) {
	graphs := map[string]*asgraph.Graph{"uneven": unevenLeafGraph()}
	for _, n := range []int{600, 1500} {
		g := topogen.MustGenerate(topogen.Default(n, 42))
		g.SetCPTrafficFraction(0.10)
		graphs[fmt.Sprint("topogen-", n)] = g
	}
	for name, g := range graphs {
		n := g.N()
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = g.Weight(int32(i))
		}
		pairs, foldsThatMatter := 0, 0
		for _, model := range []UtilityModel{Outgoing, Incoming} {
			for _, sbt := range []bool{true, false} {
				for _, psu := range []bool{false, true} {
					cfg := Config{Model: model, StubsBreakTies: sbt, ProjectStubUpgrades: psu}.withDefaults()
					rng := rand.New(rand.NewSource(int64(n) + 7))
					for _, pSecure := range []float64{0.15, 0.5} {
						st := randomSimplexState(rng, g, pSecure, sbt)
						rc := &roundCtx{st: st, cfg: &cfg, weights: weights, candMark: make([]bool, n)}
						for _, c := range g.ISPs() {
							if !st.secure[c] || model == Incoming {
								rc.candList = append(rc.candList, c)
								rc.candMark[c] = true
							}
						}
						wk := newWorker(g, n)
						wk.statics, wk.dyn = routing.NewSharedStaticCache(1), newDynCache(1)
						if err := wk.statics.Bind(g, cfg.Tiebreaker); err != nil {
							t.Fatal(err)
						}
						m := &classMemo{} // for the capture only
						run := func(d int32) (base, delta []float64) {
							wk.resetRound(n)
							m.kids = m.kids[:0]
							wk.processDest(d, rc, &destPlan{memo: m})
							return append([]float64(nil), wk.uBase...), append([]float64(nil), wk.uDelta...)
						}
						label := fmt.Sprintf("%s/%s/sbt=%v/psu=%v/p=%v", name, model, sbt, psu, pSecure)
						for _, grp := range siblingGroups(g, st) {
							// On the hand-built graph every member takes a turn
							// as the filler; on the big ones the first does, for
							// two siblings — the rest of a class proves nothing new.
							fillers := grp
							if name != "uneven" {
								fillers, grp = grp[:1], grp[:min(len(grp), 3)]
							}
							p := g.Providers(grp[0])[0]
							for _, f := range fillers {
								fBase, fDelta := run(f)
								kids := append([]leafKid(nil), m.kids...)
								for _, d := range grp {
									if d == f {
										continue
									}
									dBase, dDelta := run(d)
									pairs++
									got := 0.0
									if g.IsISP(p) {
										got = foldLeaf(model, kids, weights[p], d, f, weights[f])
									}
									requireSiblingBits(t, fmt.Sprintf("%s siblings %d, %d of %d", label, f, d, p), p, fBase, fDelta, dBase, dDelta, got)
									if math.Float64bits(fBase[p]) != math.Float64bits(dBase[p]) {
										foldsThatMatter++
									}
								}
							}
						}
					}
				}
			}
		}
		if pairs == 0 {
			t.Errorf("%s: no sibling pair compared", name)
		}
		if name == "uneven" && foldsThatMatter == 0 {
			t.Errorf("%s: every sibling's uBase[p] equals the filler's: the fold order went untested", name)
		}
	}
}

// requireSiblingBits is one pair's share of the theorem: the filler's
// and the sibling's accumulators agree bit for bit everywhere but at
// uBase[p], where the sibling's entry is the fold.
func requireSiblingBits(t *testing.T, label string, p int32, fBase, fDelta, dBase, dDelta []float64, fold float64) {
	t.Helper()
	for i := range fBase {
		if math.Float64bits(fDelta[i]) != math.Float64bits(dDelta[i]) {
			t.Fatalf("%s: uDelta[%d] differs: %v vs %v", label, i, fDelta[i], dDelta[i])
		}
		if int32(i) != p && math.Float64bits(fBase[i]) != math.Float64bits(dBase[i]) {
			t.Fatalf("%s: uBase[%d] differs: %v vs %v", label, i, fBase[i], dBase[i])
		}
	}
	if math.Float64bits(fold) != math.Float64bits(dBase[p]) {
		t.Fatalf("%s: the fold gives uBase[%d] = %v, processDest gives %v", label, p, fold, dBase[p])
	}
}

// leafSymmetryReference anchors the structural half of the theorem to
// the specification instead of the engine: the naive
// path-vector trees routing.Reference computes for sibling leaves d, d'
// are equal under the swap d ↔ d' — parents and secure flags — in random
// states, under the hash tie-break the engine uses.
func leafSymmetryReference(t *testing.T) {
	for _, g := range []*asgraph.Graph{
		unevenLeafGraph(),
		topogen.MustGenerate(topogen.Default(200, 5)),
		topogen.MustGenerate(topogen.Default(300, 6)),
	} {
		n := int32(g.N())
		rng := rand.New(rand.NewSource(int64(n)))
		tb := routing.HashTiebreaker{Seed: uint64(n)}
		pairs := 0
		for _, sbt := range []bool{true, false} {
			st := randomSimplexState(rng, g, 0.4, sbt)
			groups := siblingGroups(g, st)
			rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
			if len(groups) > 12 {
				groups = groups[:12]
			}
			for _, grp := range groups {
				d, e := grp[0], grp[len(grp)-1]
				swap := func(x int32) int32 {
					switch x {
					case d:
						return e
					case e:
						return d
					}
					return x
				}
				td, err := routing.Reference(g, d, st.secure, st.breaks, tb)
				if err != nil {
					t.Fatal(err)
				}
				te, err := routing.Reference(g, e, st.secure, st.breaks, tb)
				if err != nil {
					t.Fatal(err)
				}
				pairs++
				for x := int32(0); x < n; x++ {
					wantParent := td.Parent[x]
					if wantParent >= 0 {
						wantParent = swap(wantParent)
					}
					if y := swap(x); te.Parent[y] != wantParent || te.Secure[y] != td.Secure[x] {
						t.Fatalf("N=%d sbt=%v siblings %d, %d: node %d has (parent %d, secure %v) toward %d but its image %d has (%d, %v) toward %d",
							n, sbt, d, e, x, td.Parent[x], td.Secure[x], d, y, te.Parent[y], te.Secure[y], e)
					}
				}
			}
		}
		if pairs == 0 {
			t.Errorf("N=%d: no sibling pair compared", n)
		}
	}
}

// TestQuickLeafFold: on random hierarchies with random leaf weights and
// leaf ids scattered among their provider's other children, the fold of
// the children captured from d's tree — d' removed, d inserted — equals
// what a real accumulate over d”s tree leaves in accBase[p] (outgoing)
// and incBase[p] (incoming), bit for bit.
func TestQuickLeafFold(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		core, leaves := 4+rng.Intn(10), 4+rng.Intn(8)
		asn := rng.Perm(core + leaves) // role k gets ASN asn[k]+1: ids scatter
		b := asgraph.NewBuilder()
		for k := range asn {
			b.AddAS(int32(asn[k] + 1))
		}
		for i := 0; i < core; i++ {
			for j := i + 1; j < core; j++ {
				switch r := rng.Float64(); {
				case r < 0.3:
					b.AddCustomer(int32(asn[i]+1), int32(asn[j]+1))
				case r < 0.4:
					b.AddPeer(int32(asn[i]+1), int32(asn[j]+1))
				}
			}
		}
		for k := core; k < core+leaves; k++ {
			// Few providers, so classes have several members.
			b.AddCustomer(int32(asn[rng.Intn(2)]+1), int32(asn[k]+1))
			b.SetWeight(int32(asn[k]+1), []float64{0.1, 1, 3, 1e16, 1e-3}[rng.Intn(5)])
		}
		g := b.MustBuild()
		n := g.N()
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = g.Weight(int32(i))
		}
		st := randomSimplexState(rng, g, 0.5, rng.Intn(2) == 0)
		tb := routing.HashTiebreaker{Seed: uint64(seed)}
		wk := newWorker(g, n)
		var captured []leafKid
		accumulated := func(d int32) {
			stc := wk.ws.PrepareDest(d, tb)
			wk.baseTree.Clear(n)
			wk.ws.ResolveInto(&wk.baseTree, stc, st.secure, st.breaks, nil, nil, tb)
			accumulate(stc, &wk.baseTree, weights, wk.accBase, wk.incBase)
			captured = appendKids(captured[:0], stc, &wk.baseTree, wk.accBase)
		}
		for _, grp := range siblingGroups(g, st) {
			for _, f := range grp {
				accumulated(f)
				kids := append([]leafKid(nil), captured...)
				p := g.Providers(f)[0]
				for _, d := range grp {
					if d == f {
						continue
					}
					accumulated(d)
					out := foldLeaf(Outgoing, kids, weights[p], d, f, weights[f])
					in := foldLeaf(Incoming, kids, weights[p], d, f, weights[f])
					if math.Float64bits(out) != math.Float64bits(wk.accBase[p]-weights[p]) ||
						math.Float64bits(in) != math.Float64bits(wk.incBase[p]) {
						t.Logf("seed %d: fold of %d's children for sibling %d gives (%v, %v), accumulate gives (%v, %v)",
							seed, f, d, out, in, wk.accBase[p]-weights[p], wk.incBase[p])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDiskStoreCompleteAfterGame: a class-replayed leaf never fetches a
// static, yet "BFS once per graph, ever" and every reader of the store
// need a blob for every destination — so a replayed leaf still writes
// its own, spliced from its filler's. After one cold game the store
// holds all N, and a second process's worth of game (store reopened)
// misses nothing.
func TestDiskStoreCompleteAfterGame(t *testing.T) {
	defer routing.CloseSharedDiskStores()
	g := topogen.MustGenerate(topogen.Default(400, 9))
	g.SetCPTrafficFraction(0.10)
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		cfg := Config{
			Model:          model,
			Theta:          0.05,
			EarlyAdopters:  append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 3, asgraph.ISP)...),
			StubsBreakTies: true,
			Workers:        2,
			RecordStats:    true,
			StaticStoreDir: t.TempDir(),
		}
		cold := MustNew(g, cfg).Run()
		if cold.PristineStats.ClassReplays == 0 {
			t.Fatalf("%s: the cold game replayed no leaf class", model)
		}
		routing.CloseSharedDiskStores()
		store, err := routing.OpenStaticDiskStore(cfg.StaticStoreDir, g, cfg.withDefaults().Tiebreaker)
		if err != nil {
			t.Fatal(err)
		}
		for d := int32(0); d < int32(g.N()); d++ {
			if !store.Has(d) {
				t.Errorf("%s: no blob for destination %d after a full game", model, d)
			}
		}
		store.Close()
		warm := MustNew(g, cfg).Run()
		requireBitIdentical(t, model.String()+"/warm", cold, warm)
		passes := []*RoundStats{warm.PristineStats}
		for _, rd := range warm.Rounds {
			passes = append(passes, rd.Stats)
		}
		for r, st := range passes {
			if st.StaticMisses != 0 || st.StaticDiskWrites != 0 {
				t.Errorf("%s: warm pass %d ran %d BFSs and wrote %d records", model, r, st.StaticMisses, st.StaticDiskWrites)
			}
		}
	}
}

// TestLeafSpliceStoreEquivalence: a store populated with the class rung
// on, where every replayed leaf's blob is spliced from its filler's,
// holds the same bytes as one populated with the rung off, where every
// leaf builds and packs its own: every static and every sidecar, both
// models. The splice also spares the BFS of every replayed leaf.
func TestLeafSpliceStoreEquivalence(t *testing.T) {
	defer routing.CloseSharedDiskStores()
	g := topogen.MustGenerate(topogen.Default(600, 42))
	g.SetCPTrafficFraction(0.10)
	tb := routing.HashTiebreaker{Seed: 3}
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		cfg := Config{Model: model, Theta: 0.05, StubsBreakTies: true, Tiebreaker: tb, Workers: 2, RecordStats: true,
			EarlyAdopters: append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 5, asgraph.ISP)...)}
		on, off := cfg, cfg
		on.StaticStoreDir, off.StaticStoreDir = t.TempDir(), t.TempDir()
		resOn := MustNew(g, on).Run()
		resOff := withoutLeafClasses(MustNew(g, off)).Run()
		requireBitIdentical(t, model.String(), resOff, resOn)
		if ps := resOn.PristineStats; ps.ClassReplays == 0 || ps.StaticMisses+ps.ClassReplays != resOff.PristineStats.StaticMisses {
			t.Errorf("%s: pristine pass with classes ran %d BFSs and %d class replays, without %d BFSs",
				model, ps.StaticMisses, ps.ClassReplays, resOff.PristineStats.StaticMisses)
		}
		stOn, errOn := routing.SharedStaticDiskStore(on.StaticStoreDir, g, tb)
		stOff, errOff := routing.SharedStaticDiskStore(off.StaticStoreDir, g, tb)
		if errOn != nil || errOff != nil {
			t.Fatal(errOn, errOff)
		}
		for d := int32(0); d < int32(g.N()); d++ {
			if a, b := stOn.Lookup(d), stOff.Lookup(d); a == nil || !bytes.Equal(a, b) {
				t.Fatalf("%s: static of %d differs (%d bytes with classes, %d without)", model, d, len(a), len(b))
			}
			for _, kind := range []uint8{uint8(Outgoing), uint8(Incoming)} {
				a, b := stOn.LookupSidecar(kind, d, nil), stOff.LookupSidecar(kind, d, nil)
				if !bytes.Equal(a, b) || (a == nil) != (kind != uint8(model)) {
					t.Fatalf("%s: sidecar %d of %d differs or is missing (%d and %d bytes)", model, kind, d, len(a), len(b))
				}
			}
		}
	}
}

// TestLeafSpliceWithoutFillerBlob: a replayed leaf whose filler's blob
// is not on disk writes nothing — its class replay never builds — and a
// later run that serves it on its own rung fills it through the normal
// miss path. A first pass populates the store and leaves every static
// resident; then the class's statics and sidecars are dropped from the
// store, so a second pass serves the filler from the resident tier and
// replays its siblings with no filler blob to splice. A third pass, its
// class rung off, builds each of them on a miss.
func TestLeafSpliceWithoutFillerBlob(t *testing.T) {
	defer routing.CloseSharedDiskStores()
	g := topogen.MustGenerate(topogen.Default(600, 42))
	g.SetCPTrafficFraction(0.10)
	tb := routing.HashTiebreaker{Seed: 3}
	n := g.N()
	var members []int32 // the leaves of the provider with the most
	byProv := map[int32][]int32{}
	for d, p := range leafProviders(g) {
		if p >= 0 {
			if byProv[p] = append(byProv[p], int32(d)); len(byProv[p]) > len(members) {
				members = byProv[p]
			}
		}
	}
	if len(members) < 3 {
		t.Fatalf("largest leaf class has %d members", len(members))
	}
	insecure := make([]bool, n)
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		cfg := Config{Model: model, Tiebreaker: tb, Workers: 1, RecordStats: true, StaticStoreDir: t.TempDir()}
		ref := cfg
		ref.StaticStoreDir, ref.SharedStatics = "", routing.NewSharedStaticCache(1)
		want, _, _, err := withoutLeafClasses(MustNew(g, ref)).RoundUtilities(insecure, false)
		if err != nil {
			t.Fatal(err)
		}
		pass := func(label string, c Config, classes bool) *RoundStats {
			s := MustNew(g, c)
			if !classes {
				withoutLeafClasses(s)
			}
			got, _, stats, err := s.RoundUtilities(insecure, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s/%s: uBase[%d] = %v, want %v", model, label, i, got[i], want[i])
				}
			}
			return stats
		}
		store, err := routing.SharedStaticDiskStore(cfg.StaticStoreDir, g, tb)
		if err != nil {
			t.Fatal(err)
		}
		dropClass := func() {
			for _, d := range members {
				store.Drop(d)
				store.DropSidecar(uint8(model), d)
			}
		}

		resident := routing.NewSharedStaticCache(1 << 30)
		populate := cfg
		populate.SharedStatics = resident
		pass("populate", populate, true)
		dropClass()
		noFiller := cfg
		noFiller.SharedStatics = resident.Share() // the statics, none of the sidecars
		if st := pass("no-filler-blob", noFiller, true); st.ClassReplays < int64(len(members)-1) {
			t.Errorf("%s: %d class replays, want every sibling of the class's %d", model, st.ClassReplays, len(members))
		}
		for _, d := range members {
			if store.Has(d) {
				t.Errorf("%s: leaf %d was written with no filler blob to splice", model, d)
			}
		}

		dropClass() // the second pass recorded the sidecars again
		if st := pass("miss", cfg, false); st.StaticMisses != int64(len(members)) {
			t.Errorf("%s: %d static misses, want the class's %d", model, st.StaticMisses, len(members))
		}
		w := routing.NewWorkspace(g)
		for _, d := range members {
			if got, want := store.Lookup(d), routing.AppendPacked(nil, w.PrepareDest(d, tb), g); !bytes.Equal(got, want) {
				t.Errorf("%s: leaf %d holds %d bytes after its miss, want its %d built ones", model, d, len(got), len(want))
			}
		}
	}
}

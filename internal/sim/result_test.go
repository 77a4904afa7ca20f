package sim

import (
	"strings"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
)

func TestResultHelpers(t *testing.T) {
	g := asgraph.NewBuilder().
		AddCustomer(1, 2).AddCustomer(1, 3).
		AddCustomer(2, 4).AddCustomer(3, 4).
		SetWeight(1, 10).
		MustBuild()
	iT, iB := g.Index(1), g.Index(3)
	res := MustNew(g, Config{
		Model:          Outgoing,
		Theta:          0.05,
		EarlyAdopters:  []int32{iT, iB},
		StubsBreakTies: true,
		Tiebreaker:     routing.LowestIndex{},
	}).Run()

	// Per-round news sum to final minus initial.
	newA, isps := res.NewPerRound()
	if len(newA) != res.NumRounds() || len(isps) != len(newA) {
		t.Fatalf("per-round lengths %d/%d, want %d", len(newA), len(isps), res.NumRounds())
	}
	sum := res.Initial.SecureASes
	for _, x := range newA {
		sum += x
	}
	if sum != res.Final.SecureASes {
		t.Errorf("news sum to %d, want %d", sum, res.Final.SecureASes)
	}

	s := res.Summary(g)
	for _, want := range []string{"rounds:", "secure ASes:", "secure ISPs:", "stable: true"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if res.SecureFractionASes() <= 0 || res.SecureFractionASes() > 1 {
		t.Errorf("AS fraction %v out of range", res.SecureFractionASes())
	}
	if res.SecureFractionISPs() <= 0 || res.SecureFractionISPs() > 1 {
		t.Errorf("ISP fraction %v out of range", res.SecureFractionISPs())
	}
}

// TestSecureFractionsEmpty: the fraction helpers must return 0, not
// NaN, for results with no ASes or no ISPs (empty graph, degenerate
// topologies) so downstream aggregation and plotting never poison
// averages.
func TestSecureFractionsEmpty(t *testing.T) {
	var r Result
	if f := r.SecureFractionASes(); f != 0 {
		t.Errorf("empty result: SecureFractionASes = %v, want 0", f)
	}
	if f := r.SecureFractionISPs(); f != 0 {
		t.Errorf("empty result: SecureFractionISPs = %v, want 0", f)
	}
}

func TestSnapshotHelpers(t *testing.T) {
	st := newDeployState(130)
	st.secure[0] = true
	st.secure[64] = true
	st.secure[129] = true
	snap := st.snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot words = %d, want 3", len(snap))
	}
	if snap[0]&1 == 0 || snap[1]&1 == 0 || snap[2]&(1<<1) == 0 {
		t.Errorf("snapshot bits wrong: %x", snap)
	}
	if !snapshotsEqual(snap, st.snapshot()) {
		t.Error("identical states must have equal snapshots")
	}
	st.secure[5] = true
	if snapshotsEqual(snap, st.snapshot()) {
		t.Error("different states must differ")
	}
	if hashSnapshot(snap) == hashSnapshot(st.snapshot()) {
		t.Error("hash collision on adjacent states (possible but suspicious)")
	}
	if snapshotsEqual(snap, snap[:2]) {
		t.Error("length mismatch must compare unequal")
	}
}

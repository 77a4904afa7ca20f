package sim

import (
	"encoding/hex"
	"os"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
)

func fpBase() Config {
	return Config{
		Model:          Outgoing,
		Theta:          0.05,
		EarlyAdopters:  []int32{1, 2, 3},
		StubsBreakTies: true,
		Tiebreaker:     routing.HashTiebreaker{Seed: 42},
	}
}

func TestFingerprintStable(t *testing.T) {
	a, b := fpBase().Fingerprint(), fpBase().Fingerprint()
	if a != b {
		t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
	}
	if len(a) != 32 {
		t.Fatalf("fingerprint length %d, want 32 hex chars", len(a))
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpBase().Fingerprint()
	mutations := map[string]func(*Config){
		"model":         func(c *Config) { c.Model = Incoming },
		"theta":         func(c *Config) { c.Theta = 0.1 },
		"adopters":      func(c *Config) { c.EarlyAdopters = []int32{1, 2} },
		"adopter-order": func(c *Config) { c.EarlyAdopters = []int32{3, 2, 1} },
		"stubsbreak":    func(c *Config) { c.StubsBreakTies = false },
		"tiebreaker":    func(c *Config) { c.Tiebreaker = routing.HashTiebreaker{Seed: 7} },
		"tb-kind":       func(c *Config) { c.Tiebreaker = routing.LowestIndex{} },
		"maxrounds":     func(c *Config) { c.MaxRounds = 10 },
		"jitter":        func(c *Config) { c.ThetaJitter = 0.01 },
		"projectstubs":  func(c *Config) { c.ProjectStubUpgrades = true },
	}
	for name, mutate := range mutations {
		c := fpBase()
		mutate(&c)
		if got := c.Fingerprint(); got == base {
			t.Errorf("%s: fingerprint unchanged by a trajectory-relevant field", name)
		}
	}
}

// TestFingerprintNormalization checks the documented equivalences: the
// fingerprint applies the same defaulting Run does and ignores
// instrumentation-only fields.
func TestFingerprintNormalization(t *testing.T) {
	base := fpBase().Fingerprint()

	equiv := map[string]func(*Config){
		"workers":         func(c *Config) { c.Workers = 7 },
		"recordutilities": func(c *Config) { c.RecordUtilities = true },
		"recordstats":     func(c *Config) { c.RecordStats = true },
		"maxrounds-default": func(c *Config) {
			c.MaxRounds = 250 // the documented default for 0
		},
		"thetaseed-without-jitter": func(c *Config) { c.ThetaSeed = 99 },
	}
	for name, mutate := range equiv {
		c := fpBase()
		mutate(&c)
		if got := c.Fingerprint(); got != base {
			t.Errorf("%s: fingerprint changed by an equivalent config", name)
		}
	}

	nilTB := fpBase()
	nilTB.Tiebreaker = nil
	defTB := fpBase()
	defTB.Tiebreaker = routing.HashTiebreaker{}
	if nilTB.Fingerprint() != defTB.Fingerprint() {
		t.Errorf("nil tiebreaker should fingerprint as the default HashTiebreaker")
	}

	// With jitter enabled, the seed matters.
	j1 := fpBase()
	j1.ThetaJitter, j1.ThetaSeed = 0.01, 1
	j2 := fpBase()
	j2.ThetaJitter, j2.ThetaSeed = 0.01, 2
	if j1.Fingerprint() == j2.Fingerprint() {
		t.Errorf("ThetaSeed should be fingerprinted when jitter is on")
	}
}

// TestCacheKeysPinned pins the content keys that outlive a process —
// the experiment cache's Config fingerprints, the tiebreaker's
// fingerprint and wire bytes, and the static store's directory name —
// so caches and stores written by earlier builds stay addressable.
func TestCacheKeysPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"base", func(*Config) {}, "908d1bd7d9df932f237ac811adb4712b"},
		{"lowestindex", func(c *Config) { c.Tiebreaker = routing.LowestIndex{} }, "bdef1785b42fadeca5c485242bd3f36a"},
		{"jitter", func(c *Config) { c.ThetaJitter, c.ThetaSeed = 0.02, 7 }, "941a22fc593fd2712ce65640372d0d18"},
		{"projectstubs", func(c *Config) { c.ProjectStubUpgrades = true }, "05466cddd5046f0a73a495735492bc5b"},
	} {
		cfg := fpBase()
		c.mutate(&cfg)
		if got := cfg.Fingerprint(); got != c.want {
			t.Errorf("%s: Config fingerprint %s, want %s", c.name, got, c.want)
		}
	}
	for _, c := range []struct {
		tb       routing.Tiebreaker
		fp, wire string
	}{
		{routing.HashTiebreaker{Seed: 42}, "hash(seed=42)", "012a00000000000000"},
		{routing.LowestIndex{}, "lowestindex", "02"},
	} {
		wire, err := routing.EncodeTiebreaker(c.tb)
		if err != nil {
			t.Fatal(err)
		}
		if got := routing.TiebreakerFingerprint(c.tb); got != c.fp {
			t.Errorf("%T: fingerprint %q, want %q", c.tb, got, c.fp)
		}
		if got := hex.EncodeToString(wire); got != c.wire {
			t.Errorf("%T: wire %s, want %s", c.tb, got, c.wire)
		}
	}
	g := asgraph.NewBuilder().
		AddCustomer(1, 2).AddCustomer(1, 3).AddCustomer(2, 4).AddCustomer(3, 4).
		AddPeer(2, 3).SetWeight(1, 10).
		MustBuild()
	root := t.TempDir()
	st, err := routing.OpenStaticDiskStore(root, g, routing.HashTiebreaker{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	ents, err := os.ReadDir(root)
	if err != nil || len(ents) != 1 {
		t.Fatalf("store root holds %v (%v), want one directory", ents, err)
	}
	if got, want := ents[0].Name(), "statics-v1-9b0a7bd41a875646"; got != want {
		t.Errorf("static store directory %s, want %s", got, want)
	}
}

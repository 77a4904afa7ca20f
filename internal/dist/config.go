package dist

import (
	"fmt"

	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

// Config wire codec. A worker's ShardEngine reads exactly these Config
// fields: Model, StubsBreakTies, ProjectStubUpgrades, Tiebreaker, the
// two cache budgets and the static disk-store root — so exactly these
// travel. Decision-side fields (Theta*, EarlyAdopters, MaxRounds) stay
// with the coordinator, which is the only party applying update rule
// (3); Workers is superseded by the explicit shard assignment in the
// hello frame; and SharedStatics/Executor cannot cross a process
// boundary by construction. If ShardEngine ever grows a new Config
// dependency it must be added here, or distributed runs would silently
// diverge — which the differential tests in dist_test.go exist to
// catch.
//
// The static budget applies per engine: each worker process builds its
// own resident store of StaticCacheBytes for statics (and as much for
// sidecars), so K processes may hold up to K budgets. The dynamic
// budget is split per logical shard, so its total stays one budget.
// Each engine reports its store in its partials, and the coordinator's
// RoundStats sum them.
//
// StaticStoreDir ships as a path string that each worker resolves
// against its own filesystem: local fork-exec workers share the
// coordinator's disk and see one store, TCP workers open (or create)
// their own local store under the same path, and a worker that cannot
// use the path at all silently runs without the tier — all of which
// produce identical bits, since the disk tier is validated-or-recompute
// by construction.

const configWireVersion = 7

// encodeConfig renders the engine-relevant Config fields.
func encodeConfig(cfg sim.Config) ([]byte, error) {
	tb := cfg.Tiebreaker
	if tb == nil {
		tb = routing.HashTiebreaker{}
	}
	tbw, err := routing.EncodeTiebreaker(tb)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	e := &enc{}
	e.u8(configWireVersion)
	e.u8(byte(cfg.Model))
	var flags byte
	if cfg.StubsBreakTies {
		flags |= 1
	}
	if cfg.ProjectStubUpgrades {
		flags |= 2
	}
	e.u8(flags)
	e.i64(cfg.StaticCacheBytes)
	e.i64(cfg.DynamicCacheBytes)
	e.bytes([]byte(cfg.StaticStoreDir))
	e.bytes(tbw)
	return e.b, nil
}

// decodeConfig reconstructs the worker-side Config.
func decodeConfig(p []byte) (sim.Config, error) {
	var cfg sim.Config
	d := &dec{b: p}
	if v := d.u8(); d.err == nil && v != configWireVersion {
		return cfg, fmt.Errorf("dist: config wire version %d, want %d", v, configWireVersion)
	}
	cfg.Model = sim.UtilityModel(d.u8())
	flags := d.u8()
	cfg.StubsBreakTies = flags&1 != 0
	cfg.ProjectStubUpgrades = flags&2 != 0
	cfg.StaticCacheBytes = d.i64()
	cfg.DynamicCacheBytes = d.i64()
	cfg.StaticStoreDir = string(d.bytes())
	tbw := d.bytes()
	if err := d.done(); err != nil {
		return cfg, err
	}
	tb, err := routing.DecodeTiebreaker(tbw)
	if err != nil {
		return cfg, err
	}
	cfg.Tiebreaker = tb
	return cfg, nil
}

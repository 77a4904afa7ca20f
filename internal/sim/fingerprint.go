package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"sbgp/internal/routing"
)

// Fingerprint returns a content key identifying the deployment
// trajectory this configuration produces on a given graph: two configs
// with equal fingerprints run the exact same simulation — same
// candidates, same per-round decisions, same final state — so a cached
// Result for one can serve the other.
//
// The fingerprint covers every field that shapes the trajectory (model,
// thresholds, early adopters, tie-break policy, projection semantics,
// round cap) after applying the same normalization Run does (nil
// tiebreaker, zero MaxRounds, ThetaSeed ignored without jitter). It
// deliberately excludes the fields that only instrument the run:
//
//   - Workers: decisions are worker-count invariant (the engine's
//     per-worker float merges differ only in final ulps, absorbed by
//     decisionEpsilon; see TestRunDeterministicAcrossWorkers). Recorded
//     utilities may therefore differ in the last ulp across pool sizes,
//     which is why the round memo (roundmemo.go) keys its rounds by the
//     logical shard count: a served round carries the bits of the shard
//     count that computed it.
//   - RecordUtilities, RecordStats: observability only.
//     Callers that cache Results should record superset instrumentation
//     so one entry serves every requester.
//   - CacheBytes: a performance/memory knob. Cached statics are
//     byte-identical to cold computation (see
//     TestStaticCacheResultInvariant), and replayed contributions are
//     the recorded bits re-summed in the cold engine's order (see
//     TestDynCacheResultInvariant), so no budget, including forced
//     eviction, can change any Result.
//   - SharedStatics: likewise — a caller's store serves the same bits
//     the engine's own store or cold computation produces (see
//     TestSharedStaticsResultInvariant).
//   - StaticStoreDir: likewise — a disk-stored blob is CRC-guarded,
//     decode-validated, and reproduces PrepareDest's output bit for bit;
//     any validation failure recomputes (see TestDiskStoreResultInvariant),
//     so no store state (absent, cold, warm, corrupt) can change any
//     Result.
//   - Executor: execution placement only. A distributed executor with
//     the same logical shard count is bit-identical to the in-process
//     engine (see internal/dist's differential tests), and any other
//     shard count falls under the Workers argument above.
func (c Config) Fingerprint() string {
	var b strings.Builder
	b.WriteString("sim-v1|")
	fmt.Fprintf(&b, "model=%s|", c.Model)
	fmt.Fprintf(&b, "theta=%s|", ffmt(c.Theta))
	b.WriteString("adopters=")
	for _, a := range c.EarlyAdopters {
		fmt.Fprintf(&b, "%d,", a)
	}
	b.WriteString("|")
	fmt.Fprintf(&b, "stubsbreak=%t|", c.StubsBreakTies)
	tb := c.Tiebreaker
	if tb == nil {
		tb = routing.HashTiebreaker{}
	}
	fmt.Fprintf(&b, "tb=%s|", routing.TiebreakerFingerprint(tb))
	maxRounds := c.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 250
	}
	fmt.Fprintf(&b, "maxrounds=%d|", maxRounds)
	if c.ThetaJitter > 0 {
		fmt.Fprintf(&b, "jitter=%s|seed=%d|", ffmt(c.ThetaJitter), c.ThetaSeed)
	}
	fmt.Fprintf(&b, "projectstubs=%t", c.ProjectStubUpgrades)

	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// ffmt renders a float64 with the shortest representation that parses
// back to the same value, so fingerprints are exact.
func ffmt(x float64) string {
	if math.IsNaN(x) {
		return "NaN"
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

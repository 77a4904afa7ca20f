package sim

import (
	"encoding/binary"
	"hash/maphash"
	"time"
)

// The round memo (routing/roundmemo.go) lets the simulations that share
// a statics handle share rounds too. Update rule (3) reads θ only when
// it decides, so a round's utilities are a function of the state and of
// what turns a state into utilities: the handle's graph, weights and
// tiebreaker, plus the key below. Two simulations of a θ sweep, or of
// any two thresholds, jitters, round caps or adopter sets, that reach
// one state compute one round, bit for bit.
//
// The key is the utility model, StubsBreakTies, ProjectStubUpgrades,
// the logical shard count, whether this is the pristine pass, and the
// secure and tie-break bitsets. The shard count is in it because
// utilities may differ in the last ulp across shard counts (see
// Fingerprint's Workers note): leaving it out would let which
// simulation filled an entry decide the bits another one reads. An
// entry holds only what RunE reads of a round: every ISP's base
// utility and projected utility, 16 bytes per ISP.
//
// Only an in-process simulation on a caller's handle consults the
// memo. A miss is computeRound; a hit is its recorded output.

// roundSeed and roundHash hash a round key into the memo's buckets.
// roundHash is a variable so that a test can force every key into one
// bucket.
var (
	roundSeed = maphash.MakeSeed()
	roundHash = func(key []byte) uint64 { return maphash.Bytes(roundSeed, key) }
)

// round returns the utilities of the round in state st, as computeRound
// does: served from the round memo when a simulation sharing the handle
// already computed it, computed and offered to the memo otherwise.
// candidates is nil for the pristine pass.
func (s *Sim) round(st *deployState, candidates []bool) (uBase, uProj []float64, stats *RoundStats, err error) {
	if s.memo == nil {
		return s.computeRound(st, candidates)
	}
	var started time.Time
	if s.cfg.RecordStats {
		started = time.Now()
	}
	key := s.roundKey(st, candidates == nil)
	h := roundHash(key)
	isps := s.g.ISPs()
	if vals := s.memo.RoundGet(h, key); vals != nil {
		for k, i := range isps {
			s.uBase[i], s.uProj[i] = vals[k], vals[len(isps)+k]
		}
		s.shared++
		if s.cfg.RecordStats {
			cands := 0
			for _, c := range candidates {
				if c {
					cands++
				}
			}
			stats = &RoundStats{Wall: time.Since(started), Destinations: s.g.N(), Candidates: cands}
		}
		return s.uBase, s.uProj, stats, nil
	}
	uBase, uProj, stats, err = s.computeRound(st, candidates)
	if err != nil {
		return nil, nil, nil, err
	}
	vals := make([]float64, 2*len(isps))
	for k, i := range isps {
		vals[k], vals[len(isps)+k] = uBase[i], uProj[i]
	}
	s.memo.RoundPut(h, key, vals)
	return uBase, uProj, stats, nil
}

// roundKey encodes the memo key of the round in st into the Sim's key
// buffer, which the next call overwrites.
func (s *Sim) roundKey(st *deployState, pristine bool) []byte {
	var flags byte
	for i, on := range []bool{s.cfg.StubsBreakTies, s.cfg.ProjectStubUpgrades, pristine} {
		if on {
			flags |= 1 << i
		}
	}
	b := append(s.memoKey[:0], byte(s.cfg.Model), flags)
	b = binary.AppendUvarint(b, uint64(s.exec.TotalShards()))
	b = appendBits(b, st.secure)
	b = appendBits(b, st.breaks)
	s.memoKey = b
	return b
}

// appendBits appends bs packed eight to a byte, low bit first.
func appendBits(b []byte, bs []bool) []byte {
	var cur byte
	for i, on := range bs {
		if on {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, cur)
			cur = 0
		}
	}
	if len(bs)%8 != 0 {
		b = append(b, cur)
	}
	return b
}

// SharedRounds returns how many of the last run's round computations,
// the pristine pass included, the round memo served instead of the
// executor.
func (s *Sim) SharedRounds() int { return s.shared }

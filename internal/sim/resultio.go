package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// Result (de)serialization. The wire format is JSON with one quirk: the
// utility arrays contain NaN for non-candidate entries (see Round), and
// JSON has no NaN, so nanFloats maps NaN <-> null. Floats use the
// shortest round-tripping representation, so a serialized Result decodes
// to bit-identical utilities — reports rendered from a loaded Result are
// byte-identical to reports rendered from the original.

// resultWireVersion guards cached Results against format drift: bump it
// whenever the wire format or the simulation semantics behind it change,
// and stale cache entries are rejected as a version mismatch.
const resultWireVersion = 1

// nanFloats is a []float64 that marshals NaN entries as JSON null.
type nanFloats []float64

func (f nanFloats) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, v := range f {
		if i > 0 {
			b.WriteByte(',')
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.WriteString("null")
		} else {
			b.Write(strconv.AppendFloat(nil, v, 'g', -1, 64))
		}
	}
	b.WriteByte(']')
	return b.Bytes(), nil
}

func (f *nanFloats) UnmarshalJSON(data []byte) error {
	var raw []*float64
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make([]float64, len(raw))
	for i, p := range raw {
		if p == nil {
			out[i] = math.NaN()
		} else {
			out[i] = *p
		}
	}
	*f = out
	return nil
}

type resultWire struct {
	Version       int         `json:"version"`
	ISPs          []int32     `json:"isps"`
	PristineUtil  nanFloats   `json:"pristine_util"`
	PristineStats *RoundStats `json:"pristine_stats,omitempty"`
	Initial       Counts      `json:"initial"`
	Rounds        []roundWire `json:"rounds"`
	FinalSecure   []bool      `json:"final_secure"`
	Final         Counts      `json:"final"`
	Stable        bool        `json:"stable"`
	Oscillated    bool        `json:"oscillated"`
	CycleStart    int         `json:"cycle_start"`
	CycleLen      int         `json:"cycle_len"`
}

type roundWire struct {
	Deployed        []int32     `json:"deployed,omitempty"`
	Disabled        []int32     `json:"disabled,omitempty"`
	NewSimplexStubs []int32     `json:"new_simplex_stubs,omitempty"`
	After           Counts      `json:"after"`
	UtilBase        nanFloats   `json:"util_base,omitempty"`
	UtilProj        nanFloats   `json:"util_proj,omitempty"`
	Stats           *RoundStats `json:"stats,omitempty"`
}

// WriteResult serializes res as JSON.
func WriteResult(w io.Writer, res *Result) error {
	wire := resultWire{
		Version:       resultWireVersion,
		ISPs:          res.ISPs,
		PristineUtil:  nanFloats(res.PristineUtil),
		PristineStats: res.PristineStats,
		FinalSecure:   res.FinalSecure,
		Initial:       res.Initial,
		Final:         res.Final,
		Stable:        res.Stable,
		Oscillated:    res.Oscillated,
		CycleStart:    res.CycleStart,
		CycleLen:      res.CycleLen,
	}
	for _, rd := range res.Rounds {
		wire.Rounds = append(wire.Rounds, roundWire{
			Deployed:        rd.Deployed,
			Disabled:        rd.Disabled,
			NewSimplexStubs: rd.NewSimplexStubs,
			After:           rd.After,
			UtilBase:        nanFloats(rd.UtilBase),
			UtilProj:        nanFloats(rd.UtilProj),
			Stats:           rd.Stats,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&wire)
}

// ReadResult deserializes a Result written by WriteResult. It rejects
// entries from a different wire version, so cached results never leak
// across format changes.
func ReadResult(r io.Reader) (*Result, error) {
	var wire resultWire
	dec := json.NewDecoder(r)
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("sim: decoding result: %w", err)
	}
	if wire.Version != resultWireVersion {
		return nil, fmt.Errorf("sim: result wire version %d, want %d", wire.Version, resultWireVersion)
	}
	res := &Result{
		ISPs:          wire.ISPs,
		PristineUtil:  wire.PristineUtil,
		PristineStats: wire.PristineStats,
		FinalSecure:   wire.FinalSecure,
		Initial:       wire.Initial,
		Final:         wire.Final,
		Stable:        wire.Stable,
		Oscillated:    wire.Oscillated,
		CycleStart:    wire.CycleStart,
		CycleLen:      wire.CycleLen,
	}
	for _, rd := range wire.Rounds {
		res.Rounds = append(res.Rounds, Round{
			Deployed:        rd.Deployed,
			Disabled:        rd.Disabled,
			NewSimplexStubs: rd.NewSimplexStubs,
			After:           rd.After,
			UtilBase:        rd.UtilBase,
			UtilProj:        rd.UtilProj,
			Stats:           rd.Stats,
		})
	}
	return res, nil
}

// ReadResultFile reads a Result from the named file and validates it
// against a graph of n nodes, so stale or corrupted cache entries are
// reported as errors rather than silently served.
func ReadResultFile(path string, n int) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := ReadResult(f)
	if err != nil {
		return nil, err
	}
	if err := resultSanity(res, n); err != nil {
		return nil, err
	}
	return res, nil
}

// resultSanity rejects a deserialized Result that cannot belong to a
// graph with n nodes (a stale or corrupted cache entry): renderers index
// node arrays by every listed node and read utilities at every index,
// so an entry that would make them panic is recomputed instead.
func resultSanity(res *Result, n int) error {
	if len(res.FinalSecure) != n {
		return fmt.Errorf("sim: cached result has %d nodes, want %d", len(res.FinalSecure), n)
	}
	if len(res.PristineUtil) != n {
		return fmt.Errorf("sim: cached result pristine utilities cover %d nodes, want %d", len(res.PristineUtil), n)
	}
	// outside returns the first entry of list that is not a node.
	outside := func(list []int32) (int32, bool) {
		for _, i := range list {
			if i < 0 || int(i) >= n {
				return i, true
			}
		}
		return 0, false
	}
	if i, bad := outside(res.ISPs); bad {
		return fmt.Errorf("sim: cached result lists ISP %d of %d nodes", i, n)
	}
	for r, rd := range res.Rounds {
		for _, list := range [][]int32{rd.Deployed, rd.Disabled, rd.NewSimplexStubs} {
			if i, bad := outside(list); bad {
				return fmt.Errorf("sim: cached result round %d flips node %d of %d", r+1, i, n)
			}
		}
		if (rd.UtilBase == nil) != (rd.UtilProj == nil) || rd.UtilBase != nil && (len(rd.UtilBase) != n || len(rd.UtilProj) != n) {
			return fmt.Errorf("sim: cached result round %d utilities cover %d/%d nodes, want %d", r+1, len(rd.UtilBase), len(rd.UtilProj), n)
		}
	}
	if res.Oscillated && (res.CycleStart < 0 || res.CycleLen < 1 || res.CycleStart+res.CycleLen > len(res.Rounds)) {
		return fmt.Errorf("sim: cached result cycle of %d rounds from round %d, outside its %d rounds", res.CycleLen, res.CycleStart, len(res.Rounds))
	}
	return nil
}

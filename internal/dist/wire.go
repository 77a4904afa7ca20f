// Package dist distributes the per-round utility computation of a
// simulation across long-lived worker processes — the multi-process
// analogue of the 200-node DryadLINQ cluster the paper ran on.
//
// A Coordinator implements sim.Executor: it partitions the S logical
// destination shards (S = Config.Shards, the same striping the
// in-process engine uses) across K worker processes with shard s
// assigned to process s mod K, broadcasts each round's realized flip
// set, and folds the returned per-shard partial utility vectors in
// ascending shard order. Because workers return one partial per
// *logical shard* — never pre-combined per process — the float
// summation sequence is exactly the in-process engine's, so Results
// are bit-identical to a local run with Workers = S at any process
// count, with or without mid-run worker deaths.
//
// Shards are long-lived: a worker owns its shards for the whole run,
// so the static and dynamic cache layers persist across rounds exactly
// as they do in-process. Robustness comes from per-round idle
// deadlines, worker heartbeats, and deterministic reassignment: when a
// worker dies, its shards move to the surviving workers, which replay
// them from the committed state snapshot (state-complete, so the
// retried partials are the same bits the dead worker would have
// produced).
//
// The transport is a byte stream: stdio pipes to fork-exec'd copies of
// the running binary (NewLocalCoordinator) or TCP to workers started
// with ListenAndServe on other machines (NewTCPCoordinator).
package dist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"sbgp/internal/sim"
)

// protoVersion guards both sides against frame-format drift: bump it
// on any change to a frame's layout. A change to the stats counters
// (RoundStats' signed-integer fields) needs no bump: the hello carries
// counterDigest, and a worker refuses a coordinator whose digest
// differs. CHANGES.md records what each version changed.
const protoVersion = 10

// Frame types. Direction is fixed per type: the coordinator sends
// hello/snapshot/round/assign/recompute/bye, workers send
// helloAck/partials/heartbeat/error.
const (
	frameHello     = 1
	frameHelloAck  = 2
	frameSnapshot  = 3
	frameRound     = 4
	frameAssign    = 5
	frameRecompute = 6
	framePartials  = 7
	frameHeartbeat = 8
	frameError     = 9
	frameBye       = 10
)

// maxFrameLen bounds a frame payload (1 GiB): large enough for a
// paper-scale graph or partial-vector frame, small enough that a
// corrupt length prefix cannot ask for an absurd allocation.
const maxFrameLen = 1 << 30

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) == 0 || len(payload) > maxFrameLen {
		return fmt.Errorf("dist: frame payload of %d bytes", len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame, reusing buf when it is
// large enough. The returned slice is valid until the next call with
// the same buf.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	ln := binary.LittleEndian.Uint32(hdr[:])
	if ln == 0 || ln > maxFrameLen {
		return nil, fmt.Errorf("dist: frame length %d out of range", ln)
	}
	if uint32(cap(buf)) < ln {
		buf = make([]byte, ln)
	}
	buf = buf[:ln]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// enc is an appending encoder.
type enc struct{ b []byte }

func (e *enc) u8(v byte)     { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}
func (e *enc) ints(v []int) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(uint32(x))
	}
}
func (e *enc) int32s(v []int32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(uint32(x))
	}
}
func (e *enc) bitmap(v []bool) {
	e.u32(uint32(len(v)))
	var cur byte
	for i, b := range v {
		if b {
			cur |= 1 << (uint(i) % 8)
		}
		if i%8 == 7 {
			e.u8(cur)
			cur = 0
		}
	}
	if len(v)%8 != 0 {
		e.u8(cur)
	}
}

// dec is a bounds-checked decoder: the first short read poisons it, so
// frame decoders can parse straight-line and check err once. It never
// panics on corrupt input.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("dist: "+format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.fail("truncated frame")
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *dec) u8() byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *dec) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a length prefix and bounds it by the remaining payload
// divided by the per-element floor, so corrupt counts cannot force
// large allocations.
func (d *dec) count(elemBytes int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n*elemBytes > len(d.b) {
		d.fail("count %d exceeds frame", n)
		return 0
	}
	return n
}

func (d *dec) bytes() []byte {
	n := d.count(1)
	return d.take(n)
}

func (d *dec) ints(into []int) []int {
	n := d.count(4)
	into = into[:0]
	for i := 0; i < n; i++ {
		into = append(into, int(d.u32()))
	}
	return into
}

func (d *dec) int32s(into []int32) []int32 {
	n := d.count(4)
	into = into[:0]
	for i := 0; i < n; i++ {
		into = append(into, int32(d.u32()))
	}
	return into
}

func (d *dec) bitmap(into []bool) []bool {
	n := int(d.u32())
	if d.err != nil {
		return into[:0]
	}
	words := (n + 7) / 8
	if n < 0 || words > len(d.b) {
		d.fail("bitmap of %d bits exceeds frame", n)
		return into[:0]
	}
	p := d.take(words)
	if cap(into) < n {
		into = make([]bool, n)
	}
	into = into[:n]
	for i := 0; i < n; i++ {
		into[i] = p[i/8]&(1<<(uint(i)%8)) != 0
	}
	return into
}

// done asserts the payload was consumed exactly.
func (d *dec) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// hello is the handshake the coordinator opens each worker session
// with: everything a worker needs to build its shard engine.
type hello struct {
	N           int
	TotalShards int
	Shards      []int
	Config      []byte // encodeConfig
	Graph       []byte // asgraph native text
}

func encodeHello(h *hello) []byte {
	e := &enc{b: make([]byte, 0, 64+len(h.Config)+len(h.Graph))}
	e.u8(frameHello)
	e.u32(protoVersion)
	e.u64(counterDigest)
	e.u32(uint32(h.N))
	e.u32(uint32(h.TotalShards))
	e.ints(h.Shards)
	e.bytes(h.Config)
	e.bytes(h.Graph)
	return e.b
}

func decodeHello(p []byte) (*hello, error) {
	d := &dec{b: p}
	if d.u8() != frameHello {
		return nil, fmt.Errorf("dist: not a hello frame")
	}
	if v := d.u32(); d.err == nil && v != protoVersion {
		return nil, fmt.Errorf("dist: protocol version %d, want %d", v, protoVersion)
	}
	if c := d.u64(); d.err == nil && c != counterDigest {
		return nil, fmt.Errorf("dist: coordinator's stats counters have digest %016x, this worker's %016x", c, counterDigest)
	}
	h := &hello{
		N:           int(d.u32()),
		TotalShards: int(d.u32()),
	}
	h.Shards = d.ints(nil)
	h.Config = d.bytes()
	h.Graph = d.bytes()
	if err := d.done(); err != nil {
		return nil, err
	}
	return h, nil
}

// helloAck confirms the worker built its engine; it echoes the owned
// shards so a handshake mismatch is caught immediately.
func encodeHelloAck(shards []int) []byte {
	e := &enc{}
	e.u8(frameHelloAck)
	e.ints(shards)
	return e.b
}

func decodeHelloAck(p []byte) ([]int, error) {
	d := &dec{b: p}
	if d.u8() != frameHelloAck {
		return nil, fmt.Errorf("dist: not a helloAck frame")
	}
	shards := d.ints(nil)
	if err := d.done(); err != nil {
		return nil, err
	}
	return shards, nil
}

// flip is one node's realized deployment change since the last
// broadcast state.
type flip struct {
	Node   int32
	Secure bool
	Breaks bool
}

// roundMsg carries one round of work: the realized flips to advance
// the worker's committed state by, and the candidate list.
type roundMsg struct {
	Seq   uint64
	Flips []flip
	Cands []int32
}

func encodeRound(r *roundMsg) []byte {
	e := &enc{b: make([]byte, 0, 16+5*len(r.Flips)+4*len(r.Cands))}
	e.u8(frameRound)
	e.u64(r.Seq)
	e.u32(uint32(len(r.Flips)))
	for _, f := range r.Flips {
		e.u32(uint32(f.Node))
		var flags byte
		if f.Secure {
			flags |= 1
		}
		if f.Breaks {
			flags |= 2
		}
		e.u8(flags)
	}
	e.int32s(r.Cands)
	return e.b
}

func decodeRound(p []byte, into *roundMsg) error {
	d := &dec{b: p}
	if d.u8() != frameRound {
		return fmt.Errorf("dist: not a round frame")
	}
	into.Seq = d.u64()
	nf := d.count(5)
	into.Flips = into.Flips[:0]
	for i := 0; i < nf; i++ {
		node := int32(d.u32())
		flags := d.u8()
		into.Flips = append(into.Flips, flip{Node: node, Secure: flags&1 != 0, Breaks: flags&2 != 0})
	}
	into.Cands = d.int32s(into.Cands)
	return d.done()
}

// snapshotMsg is the full committed deployment state — the
// replay-from-snapshot base a reassigned shard recomputes from.
type snapshotMsg struct {
	Seq    uint64
	Secure []bool
	Breaks []bool
}

func encodeSnapshot(s *snapshotMsg) []byte {
	e := &enc{b: make([]byte, 0, 32+len(s.Secure)/4)}
	e.u8(frameSnapshot)
	e.u64(s.Seq)
	e.bitmap(s.Secure)
	e.bitmap(s.Breaks)
	return e.b
}

func decodeSnapshot(p []byte, into *snapshotMsg) error {
	d := &dec{b: p}
	if d.u8() != frameSnapshot {
		return fmt.Errorf("dist: not a snapshot frame")
	}
	into.Seq = d.u64()
	into.Secure = d.bitmap(into.Secure)
	into.Breaks = d.bitmap(into.Breaks)
	if err := d.done(); err != nil {
		return err
	}
	if len(into.Secure) != len(into.Breaks) {
		return fmt.Errorf("dist: snapshot bitmaps of %d and %d bits", len(into.Secure), len(into.Breaks))
	}
	return nil
}

// assignMsg extends a worker's shard ownership (reassignment after a
// peer death).
func encodeAssign(shards []int) []byte {
	e := &enc{}
	e.u8(frameAssign)
	e.ints(shards)
	return e.b
}

func decodeAssign(p []byte) ([]int, error) {
	d := &dec{b: p}
	if d.u8() != frameAssign {
		return nil, fmt.Errorf("dist: not an assign frame")
	}
	shards := d.ints(nil)
	if err := d.done(); err != nil {
		return nil, err
	}
	return shards, nil
}

// recomputeMsg asks the worker to compute a subset of its shards for
// the current round — the replay path for shards it just adopted. It
// follows a snapshot of that round's state and carries the round's
// candidates, so a worker that owned nothing when the round was
// broadcast (and never saw its round frame) can replay it too.
type recomputeMsg struct {
	Seq    uint64
	Shards []int
	Cands  []int32
}

func encodeRecompute(r *recomputeMsg) []byte {
	e := &enc{}
	e.u8(frameRecompute)
	e.u64(r.Seq)
	e.ints(r.Shards)
	e.int32s(r.Cands)
	return e.b
}

func decodeRecompute(p []byte, into *recomputeMsg) error {
	d := &dec{b: p}
	if d.u8() != frameRecompute {
		return fmt.Errorf("dist: not a recompute frame")
	}
	into.Seq = d.u64()
	into.Shards = d.ints(into.Shards)
	into.Cands = d.int32s(into.Cands)
	return d.done()
}

// A partial's stats travel as one int64 per RoundStats counter, in
// RoundStats.Counters order. statsWireFields is that count, and
// counterDigest hashes the counters' names in that order.
var statsWireFields, counterDigest = func() (n int, digest uint64) {
	h := fnv.New64a()
	new(sim.RoundStats).Counters(func(name string, _ *int64) {
		n++
		fmt.Fprintln(h, name)
	})
	return n, h.Sum64()
}()

func encodeStats(e *enc, s *sim.RoundStats) { s.Counters(func(_ string, v *int64) { e.i64(*v) }) }

func decodeStats(d *dec, s *sim.RoundStats) { s.Counters(func(_ string, v *int64) { *v = d.i64() }) }

// partialsMsg returns one or more logical shards' partial sums for a
// round. The float64 vectors travel as raw IEEE-754 bits, so the
// coordinator merges the exact values the shard computed.
type partialsMsg struct {
	Seq   uint64
	Parts []sim.ShardPartial
}

func encodePartials(m *partialsMsg) []byte {
	size := 16
	for i := range m.Parts {
		size += 8 + 8*statsWireFields + 16*len(m.Parts[i].UBase)
	}
	e := &enc{b: make([]byte, 0, size)}
	e.u8(framePartials)
	e.u64(m.Seq)
	e.u32(uint32(len(m.Parts)))
	for i := range m.Parts {
		p := &m.Parts[i]
		e.u32(uint32(p.Shard))
		encodeStats(e, &p.Stats)
		e.u32(uint32(len(p.UBase)))
		for _, v := range p.UBase {
			e.f64(v)
		}
		for _, v := range p.UDelta {
			e.f64(v)
		}
	}
	return e.b
}

// decodePartials decodes into a reusable message: parts and their
// vectors are grown, never shrunk, so a coordinator decoding the same
// worker's frames round after round allocates only on the first.
func decodePartials(p []byte, into *partialsMsg) error {
	d := &dec{b: p}
	if d.u8() != framePartials {
		return fmt.Errorf("dist: not a partials frame")
	}
	into.Seq = d.u64()
	np := d.count(8 + 8*statsWireFields)
	if cap(into.Parts) < np {
		parts := make([]sim.ShardPartial, np)
		copy(parts, into.Parts[:cap(into.Parts)])
		into.Parts = parts
	}
	into.Parts = into.Parts[:np]
	for i := 0; i < np; i++ {
		pt := &into.Parts[i]
		pt.Shard = int(d.u32())
		decodeStats(d, &pt.Stats)
		n := d.count(16)
		if cap(pt.UBase) < n {
			pt.UBase = make([]float64, n)
			pt.UDelta = make([]float64, n)
		}
		pt.UBase = pt.UBase[:n]
		pt.UDelta = pt.UDelta[:n]
		for j := 0; j < n; j++ {
			pt.UBase[j] = d.f64()
		}
		for j := 0; j < n; j++ {
			pt.UDelta[j] = d.f64()
		}
	}
	return d.done()
}

// heartbeat is a keepalive a worker emits while alive (including
// mid-compute), resetting the coordinator's idle deadline.
func encodeHeartbeat() []byte { return []byte{frameHeartbeat} }

// errorMsg reports a worker-side failure before the worker gives up.
func encodeError(msg string) []byte {
	e := &enc{}
	e.u8(frameError)
	e.bytes([]byte(msg))
	return e.b
}

func decodeError(p []byte) (string, error) {
	d := &dec{b: p}
	if d.u8() != frameError {
		return "", fmt.Errorf("dist: not an error frame")
	}
	msg := d.bytes()
	if err := d.done(); err != nil {
		return "", err
	}
	return string(msg), nil
}

// bye asks a worker to exit cleanly.
func encodeBye() []byte { return []byte{frameBye} }

package dist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/sim"
)

// DefaultRoundTimeout is the idle deadline per worker: how long the
// coordinator waits without hearing *anything* (heartbeats included)
// before declaring a worker dead. Heartbeats flow every second even
// mid-compute, so this measures process liveness, not round length.
const DefaultRoundTimeout = 30 * time.Second

// Conn is a byte stream to one worker process. Close must unblock a
// concurrent Read.
type Conn interface {
	io.Reader
	io.Writer
	Close() error
}

// Options tunes a Coordinator.
type Options struct {
	// RoundTimeout overrides DefaultRoundTimeout when positive. It also
	// bounds the TCP dial and handshake phase (NewTCPCoordinator).
	RoundTimeout time.Duration
}

// workerConn is the coordinator's handle on one worker: a dedicated
// reader goroutine drains the stream — every frame (heartbeats
// included) refreshes lastSeen; non-heartbeat frames are forwarded on
// the frames channel — so a worker's writes never block on a slow
// coordinator and liveness is observable while the coordinator is busy
// elsewhere.
type workerConn struct {
	id       int
	conn     Conn
	bw       *bufio.Writer
	frames   chan []byte
	lastSeen atomic.Int64 // unix nanos of the last frame received
	readErr  error        // set before frames is closed
	dead     bool
	shards   []int // owned shards, ascending; nil once reassigned away
	parts    partialsMsg
}

func (w *workerConn) readLoop() {
	defer close(w.frames)
	br := bufio.NewReaderSize(w.conn, 1<<16)
	var buf []byte
	for {
		p, err := readFrame(br, buf)
		if err != nil {
			w.readErr = err
			return
		}
		buf = p
		w.lastSeen.Store(time.Now().UnixNano())
		if p[0] == frameHeartbeat {
			continue
		}
		w.frames <- append([]byte(nil), p...)
	}
}

// send writes one frame to the worker.
func (w *workerConn) send(p []byte) error {
	if err := writeFrame(w.bw, p); err != nil {
		return err
	}
	return w.bw.Flush()
}

// errWorkerTimeout marks an idle-deadline expiry.
var errWorkerTimeout = fmt.Errorf("dist: worker idle deadline exceeded")

// recv returns the worker's next non-heartbeat frame, waiting at most
// timeout past the last sign of life (heartbeats count, so a computing
// worker is never declared dead while its process breathes).
func (w *workerConn) recv(timeout time.Duration) ([]byte, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		idle := time.Duration(time.Now().UnixNano() - w.lastSeen.Load())
		if idle >= timeout {
			return nil, errWorkerTimeout
		}
		timer.Reset(timeout - idle)
		select {
		case p, ok := <-w.frames:
			if !ok {
				if w.readErr == io.EOF {
					return nil, fmt.Errorf("dist: worker %d closed the connection", w.id)
				}
				return nil, w.readErr
			}
			return p, nil
		case <-timer.C:
			// Re-check lastSeen: a heartbeat may have landed since we
			// armed the timer.
		}
	}
}

// Coordinator drives worker processes and implements sim.Executor. It
// is bit-identical to the in-process engine with Workers = the logical
// shard count: workers return one partial per logical shard, and
// ExecRound hands them to the simulation in ascending shard order, so
// the float summation sequence never depends on the process count or
// on which worker computed a shard.
type Coordinator struct {
	n       int
	total   int // S: logical shard count
	workers []*workerConn
	timeout time.Duration

	seq    uint64
	secure []bool // committed state: what every worker's cur state is
	breaks []bool
	flips  []flip

	slots []sim.ShardPartial // per-shard result staging, index = shard
	got   []bool
	out   []sim.ShardPartial

	closed bool
}

// NewCoordinator handshakes one worker per conn and returns an
// executor for cfg on g. The logical shard count is cfg.Shards(n) —
// pin cfg.Workers to fix it — and shard s lives on worker s mod K.
// The coordinator owns the conns; Close tells workers to exit and
// closes them.
func NewCoordinator(g *asgraph.Graph, cfg sim.Config, conns []Conn, opts Options) (*Coordinator, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("dist: no worker connections")
	}
	n := g.N()
	total := cfg.Shards(n)
	cfgw, err := encodeConfig(cfg)
	if err != nil {
		return nil, err
	}
	var gw bytes.Buffer
	if err := asgraph.Write(&gw, g); err != nil {
		return nil, fmt.Errorf("dist: serializing graph: %w", err)
	}
	timeout := opts.RoundTimeout
	if timeout <= 0 {
		timeout = DefaultRoundTimeout
	}
	c := &Coordinator{
		n:       n,
		total:   total,
		timeout: timeout,
		secure:  make([]bool, n),
		breaks:  make([]bool, n),
		slots:   make([]sim.ShardPartial, total),
		got:     make([]bool, total),
		out:     make([]sim.ShardPartial, 0, total),
	}
	for i, conn := range conns {
		w := &workerConn{
			id:     i,
			conn:   conn,
			bw:     bufio.NewWriterSize(conn, 1<<16),
			frames: make(chan []byte, 8),
		}
		for s := i; s < total; s += len(conns) {
			w.shards = append(w.shards, s)
		}
		w.lastSeen.Store(time.Now().UnixNano())
		go w.readLoop()
		c.workers = append(c.workers, w)
	}
	// Two-phase handshake: write every hello first so workers build
	// their engines concurrently, then collect the acks.
	for _, w := range c.workers {
		h := &hello{N: n, TotalShards: total, Shards: w.shards, Config: cfgw, Graph: gw.Bytes()}
		if err := w.send(encodeHello(h)); err != nil {
			c.Close()
			return nil, fmt.Errorf("dist: hello to worker %d: %w", w.id, err)
		}
	}
	// Every worker acks, including ones with no shards yet (more
	// processes than shards): they idle until a death reassignment hands
	// them work, and leaving their ack in the stream would surface as a
	// protocol error at that first handoff.
	for _, w := range c.workers {
		p, err := w.recv(c.timeout)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("dist: worker %d handshake: %w", w.id, err)
		}
		if p[0] == frameError {
			msg, _ := decodeError(p)
			c.Close()
			return nil, fmt.Errorf("dist: worker %d: %s", w.id, msg)
		}
		ack, err := decodeHelloAck(p)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("dist: worker %d handshake: %w", w.id, err)
		}
		if !equalInts(ack, w.shards) {
			c.Close()
			return nil, fmt.Errorf("dist: worker %d acked shards %v, want %v", w.id, ack, w.shards)
		}
	}
	return c, nil
}

// TotalShards implements sim.Executor.
func (c *Coordinator) TotalShards() int { return c.total }

// ExecRound implements sim.Executor: it diffs st against the committed
// state to get the realized flip set, broadcasts the round, collects
// one partial per logical shard, and reassigns + replays the shards of
// any worker that died mid-round.
func (c *Coordinator) ExecRound(st sim.RoundState, candList []int32) ([]sim.ShardPartial, sim.ExecInfo, error) {
	var info sim.ExecInfo
	if c.closed {
		return nil, info, fmt.Errorf("dist: coordinator is closed")
	}
	if len(st.Secure) != c.n {
		return nil, info, fmt.Errorf("dist: round state of %d nodes, want %d", len(st.Secure), c.n)
	}
	c.seq++
	c.flips = c.flips[:0]
	for i := 0; i < c.n; i++ {
		if st.Secure[i] != c.secure[i] || st.Breaks[i] != c.breaks[i] {
			c.flips = append(c.flips, flip{Node: int32(i), Secure: st.Secure[i], Breaks: st.Breaks[i]})
			c.secure[i] = st.Secure[i]
			c.breaks[i] = st.Breaks[i]
		}
	}
	rd := encodeRound(&roundMsg{Seq: c.seq, Flips: c.flips, Cands: candList})
	for i := range c.got {
		c.got[i] = false
	}

	for _, w := range c.workers {
		if w.dead || len(w.shards) == 0 {
			continue
		}
		if err := w.send(rd); err != nil {
			c.markDead(w, &info, fmt.Errorf("broadcasting round: %w", err))
		}
	}
	for _, w := range c.workers {
		if w.dead || len(w.shards) == 0 {
			continue
		}
		if err := c.collect(w, w.shards, &w.parts); err != nil {
			c.markDead(w, &info, err)
		}
	}
	if err := c.reassign(&info, candList); err != nil {
		return nil, info, err
	}

	c.out = c.out[:0]
	for s := 0; s < c.total; s++ {
		c.out = append(c.out, c.slots[s])
	}
	return c.out, info, nil
}

// collect awaits one partials frame from w and stages its vectors. The
// frame must carry exactly the shards in want (ascending), each with
// full-length vectors, for the current round.
func (c *Coordinator) collect(w *workerConn, want []int, into *partialsMsg) error {
	for {
		p, err := w.recv(c.timeout)
		if err != nil {
			return err
		}
		switch p[0] {
		case frameError:
			msg, err := decodeError(p)
			if err != nil {
				return err
			}
			return fmt.Errorf("worker reported: %s", msg)
		case framePartials:
			if err := decodePartials(p, into); err != nil {
				return err
			}
			if into.Seq != c.seq {
				return fmt.Errorf("partials for round %d during round %d", into.Seq, c.seq)
			}
			if len(into.Parts) != len(want) {
				return fmt.Errorf("%d partials, want %d", len(into.Parts), len(want))
			}
			for i := range into.Parts {
				pt := &into.Parts[i]
				if pt.Shard != want[i] {
					return fmt.Errorf("partial for shard %d, want %d", pt.Shard, want[i])
				}
				if len(pt.UBase) != c.n || len(pt.UDelta) != c.n {
					return fmt.Errorf("shard %d vectors of %d/%d nodes, want %d", pt.Shard, len(pt.UBase), len(pt.UDelta), c.n)
				}
				if c.got[pt.Shard] {
					return fmt.Errorf("duplicate partial for shard %d", pt.Shard)
				}
				c.slots[pt.Shard] = *pt
				c.got[pt.Shard] = true
			}
			return nil
		default:
			return fmt.Errorf("unexpected frame type %d mid-round", p[0])
		}
	}
}

// reassign moves the shards of dead workers onto survivors and replays
// any of those shards that have no partials this round. The assignment
// is deterministic — orphaned shards ascending, round-robin over live
// workers ascending by id — and the replayed partials are bit-identical
// to what the dead worker would have produced, because a shard's
// partial depends only on (graph, config, state), never on placement
// or cache temperature. Loops until no orphans remain (an assignee can
// itself die mid-replay).
func (c *Coordinator) reassign(info *sim.ExecInfo, candList []int32) error {
	for {
		var orphans []int
		for _, w := range c.workers {
			if w.dead && len(w.shards) > 0 {
				orphans = append(orphans, w.shards...)
				w.shards = nil
			}
		}
		if len(orphans) == 0 {
			return nil
		}
		sort.Ints(orphans)
		var live []*workerConn
		for _, w := range c.workers {
			if !w.dead {
				live = append(live, w)
			}
		}
		if len(live) == 0 {
			return fmt.Errorf("dist: all %d workers died (%d shards unrecoverable)", len(c.workers), len(orphans))
		}
		batches := make([][]int, len(live))
		for i, s := range orphans {
			batches[i%len(live)] = append(batches[i%len(live)], s)
		}
		snap := encodeSnapshot(&snapshotMsg{Seq: c.seq, Secure: c.secure, Breaks: c.breaks})
		for i, w := range live {
			batch := batches[i]
			if len(batch) == 0 {
				continue
			}
			// Replay only the shards that died before delivering; a dead
			// worker that answered this round already contributed valid
			// bits, so its shards just change owner for future rounds.
			var need []int
			for _, s := range batch {
				if !c.got[s] {
					need = append(need, s)
				}
			}
			err := c.replayOn(w, batch, need, snap, candList)
			if err != nil {
				c.markDead(w, info, fmt.Errorf("replaying shards %v: %w", batch, err))
				// Hand the batch to the dead worker's shard list so the
				// next loop iteration re-orphans it.
				w.shards = append(w.shards, batch...)
				continue
			}
			info.ShardsReassigned += len(batch)
			w.shards = append(w.shards, batch...)
			sort.Ints(w.shards)
		}
	}
}

// replayOn extends w's ownership with batch and recomputes the need
// subset for the current round from the committed-state snapshot and
// the round's candidates.
func (c *Coordinator) replayOn(w *workerConn, batch, need []int, snap []byte, candList []int32) error {
	if err := w.send(encodeAssign(batch)); err != nil {
		return err
	}
	if len(need) == 0 {
		return nil
	}
	if err := w.send(snap); err != nil {
		return err
	}
	if err := w.send(encodeRecompute(&recomputeMsg{Seq: c.seq, Shards: need, Cands: candList})); err != nil {
		return err
	}
	// A fresh message: decoding into w.parts would clobber the vectors
	// this worker already staged for its own shards this round.
	var msg partialsMsg
	return c.collect(w, need, &msg)
}

// markDead retires a worker: closes its conn (unblocking the reader)
// and drops it from future rounds. Its shards are re-homed by
// reassign.
func (c *Coordinator) markDead(w *workerConn, info *sim.ExecInfo, err error) {
	if w.dead {
		return
	}
	w.dead = true
	info.WorkersLost++
	w.conn.Close()
}

// Close asks live workers to exit and closes every connection.
func (c *Coordinator) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var first error
	for _, w := range c.workers {
		if !w.dead {
			_ = w.send(encodeBye())
		}
		if err := w.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

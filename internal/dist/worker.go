package dist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/sim"
)

// heartbeatInterval is how often a worker emits a keepalive. It only
// needs to beat the coordinator's round deadline comfortably.
const heartbeatInterval = time.Second

// serveOpts carries test hooks for a worker session.
type serveOpts struct {
	// dieBeforeSeq, when nonzero, makes the worker abandon the session
	// upon receiving the round frame with this sequence number — after
	// the work was dispatched, before any reply — simulating a process
	// crash mid-round.
	dieBeforeSeq uint64
}

// errDied is returned by serveConn when the dieBeforeSeq hook fires.
var errDied = fmt.Errorf("dist: worker killed by fault-injection hook")

// ServeConn runs one worker session over a byte stream: handshake,
// then rounds until the coordinator says bye or the stream closes. It
// returns nil on a clean shutdown. The caller owns the stream and
// closes it after ServeConn returns.
func ServeConn(conn io.ReadWriter) error { return serveConn(conn, serveOpts{}) }

func serveConn(conn io.ReadWriter, opts serveOpts) error {
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	var wmu sync.Mutex
	send := func(p []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := writeFrame(bw, p); err != nil {
			return err
		}
		return bw.Flush()
	}
	// Protocol errors are reported to the coordinator before giving up,
	// so a misconfiguration reads as an error there rather than a
	// silent worker death.
	bail := func(err error) error {
		_ = send(encodeError(err.Error()))
		return err
	}

	p, err := readFrame(br, nil)
	if err != nil {
		return fmt.Errorf("dist: reading hello: %w", err)
	}
	h, err := decodeHello(p)
	if err != nil {
		return bail(err)
	}
	g, err := asgraph.Read(bytes.NewReader(h.Graph))
	if err != nil {
		return bail(fmt.Errorf("dist: parsing graph: %w", err))
	}
	if g.N() != h.N {
		return bail(fmt.Errorf("dist: graph has %d nodes, hello says %d", g.N(), h.N))
	}
	cfg, err := decodeConfig(h.Config)
	if err != nil {
		return bail(err)
	}
	eng, err := sim.NewShardEngine(g, cfg, h.Shards, h.TotalShards)
	if err != nil {
		return bail(err)
	}
	n := g.N()
	secure := make([]bool, n)
	breaks := make([]bool, n)

	if err := send(encodeHelloAck(eng.Shards())); err != nil {
		return err
	}

	// Heartbeats flow for the whole session — most importantly while a
	// long round computes — so the coordinator's idle deadline measures
	// worker liveness, not round length.
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(heartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-tick.C:
				if send(encodeHeartbeat()) != nil {
					return
				}
			}
		}
	}()
	defer func() {
		close(hbStop)
		hbWG.Wait()
	}()

	var (
		rd      roundMsg
		snap    snapshotMsg
		rec     recomputeMsg
		lastSeq uint64 // the round the committed state belongs to
		buf     []byte
		out     partialsMsg
	)
	for {
		if buf, err = readFrame(br, buf); err != nil {
			if err == io.EOF {
				return nil // coordinator hung up: clean exit
			}
			return err
		}
		switch buf[0] {
		case frameBye:
			return nil
		case frameSnapshot:
			if err := decodeSnapshot(buf, &snap); err != nil {
				return bail(err)
			}
			if len(snap.Secure) != n || len(snap.Breaks) != n {
				return bail(fmt.Errorf("dist: snapshot of %d/%d nodes, want %d", len(snap.Secure), len(snap.Breaks), n))
			}
			copy(secure, snap.Secure)
			copy(breaks, snap.Breaks)
			lastSeq = snap.Seq
		case frameRound:
			if err := decodeRound(buf, &rd); err != nil {
				return bail(err)
			}
			if opts.dieBeforeSeq != 0 && rd.Seq == opts.dieBeforeSeq {
				return errDied
			}
			for _, f := range rd.Flips {
				if f.Node < 0 || int(f.Node) >= n {
					return bail(fmt.Errorf("dist: flip node %d out of range", f.Node))
				}
				secure[f.Node] = f.Secure
				breaks[f.Node] = f.Breaks
			}
			if err := checkCands(rd.Cands, n); err != nil {
				return bail(err)
			}
			lastSeq = rd.Seq
			out.Seq = rd.Seq
			out.Parts = eng.ComputeRound(sim.RoundState{Secure: secure, Breaks: breaks}, rd.Cands)
			if err := send(encodePartials(&out)); err != nil {
				return err
			}
		case frameAssign:
			shards, err := decodeAssign(buf)
			if err != nil {
				return bail(err)
			}
			if err := eng.AddShards(shards); err != nil {
				return bail(err)
			}
		case frameRecompute:
			if err := decodeRecompute(buf, &rec); err != nil {
				return bail(err)
			}
			if rec.Seq != lastSeq {
				return bail(fmt.Errorf("dist: recompute for round %d, state is of round %d", rec.Seq, lastSeq))
			}
			if err := checkCands(rec.Cands, n); err != nil {
				return bail(err)
			}
			parts, err := eng.ComputeShards(sim.RoundState{Secure: secure, Breaks: breaks}, rec.Cands, rec.Shards)
			if err != nil {
				return bail(err)
			}
			out.Seq = rec.Seq
			out.Parts = parts
			if err := send(encodePartials(&out)); err != nil {
				return err
			}
		default:
			return bail(fmt.Errorf("dist: unexpected frame type %d", buf[0]))
		}
	}
}

// checkCands enforces ComputeRound's contract on a candidate list from
// the wire: the engine indexes per-node marks by candidate and sums one
// delta per entry, so every candidate must be a node and the list
// strictly ascending.
func checkCands(cands []int32, n int) error {
	for i, c := range cands {
		if c < 0 || int(c) >= n {
			return fmt.Errorf("dist: candidate %d out of range", c)
		}
		if i > 0 && c <= cands[i-1] {
			return fmt.Errorf("dist: candidate list not strictly ascending at %d", c)
		}
	}
	return nil
}

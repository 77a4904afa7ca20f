package main

import (
	"net"
	"sync/atomic"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/dist"
	"sbgp/internal/sim"
)

// countingConn counts the bytes crossing one coordinator-side stream.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// probeDist plays the game over internal/dist twice. First through
// NewLocalCoordinator with two fork-exec'd stdio workers — the shape
// `sbgpsim -dist-workers 2` runs — for set-up time, game wall and the
// digest check; the two worker processes own the two shards, so they
// replace the in-process shard goroutines rather than add to them. Then
// through NewCoordinator over byte-counting net.Pipe streams served by
// in-process ServeConn workers, for the wire volume.
func probeDist(tr *tracer, g *asgraph.Graph, cfg sim.Config, plainWall float64, out *childResult) {
	m := out.Metrics
	root := tr.begin(0, "dist", "probes")
	defer root.end()

	// distGame plays cfg on coord; the digest it must reproduce is the
	// in-process games', the phase's first.
	distGame := func(label string, coord *dist.Coordinator) (gameRun, bool) {
		settle()
		c := cfg
		c.Executor = coord
		return out.playOp(label+" game", nil, g, c)
	}

	s := tr.begin(root.id(), "dist", "NewLocalCoordinator")
	coord, err := dist.NewLocalCoordinator(g, cfg, 2, dist.Options{})
	s.end()
	if err != nil {
		out.Attempted++
		out.fail("dist: starting local workers: %v", err)
		return
	}
	m["dist.setup_ms"] = s.busyMS()
	s = tr.begin(root.id(), "dist", "game.stdio")
	run, identical := distGame("dist stdio", coord)
	s.end()
	coord.Close() // waits for both worker processes to exit
	if identical {
		m["dist.game_wall_s"] = run.wallS
		m["dist.overhead_ratio"] = ratio(run.wallS, plainWall)
	}

	var wire atomic.Int64
	conns := make([]dist.Conn, 2)
	served := make(chan struct{}, len(conns)) // one send per worker
	for i := range conns {
		a, b := net.Pipe()
		conns[i] = countingConn{Conn: a, bytes: &wire}
		go func() {
			_ = dist.ServeConn(b) // a failed session fails the game below
			b.Close()
			served <- struct{}{}
		}()
	}
	s = tr.begin(root.id(), "dist", "NewCoordinator")
	coord, err = dist.NewCoordinator(g, cfg, conns, dist.Options{})
	s.end()
	if err != nil {
		out.Attempted++
		out.fail("dist: in-process coordinator: %v", err)
		for _, c := range conns {
			c.Close()
		}
	} else {
		setup := wire.Load()
		s = tr.begin(root.id(), "dist", "game.pipe")
		run, ok := distGame("dist pipe", coord)
		s.end()
		identical = identical && ok
		if ok {
			m["dist.wire_bytes_setup"] = float64(setup)
			m["dist.wire_bytes_per_round"] = ratio(float64(wire.Load()-setup), float64(len(run.res.Rounds)+1))
		}
		coord.Close()
	}
	for range conns {
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			out.Notes = append(out.Notes, "dist: an in-process worker did not stop within 10 s of Close")
		}
	}
	if identical {
		m["dist.result_identical"] = 1
	}
}

package dist

import (
	"fmt"
	"net"
	"os"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/sim"
)

// TCP mode: workers listen, the coordinator dials. The graph and
// config travel in the hello frame, so a worker machine needs nothing
// but the binary — start it with `sbgpsim -dist-listen :port` on each
// machine, then run the coordinator with `-dist-connect host1:port,…`.

// ListenAndServe accepts coordinator connections on addr and serves
// one worker session per connection, sequentially — a run holds its
// connection for its whole lifetime, and a dist worker saturates the
// machine while computing, so there is nothing to gain from accepting
// a second session mid-run. It returns only on a listener error.
// Diagnostics go to stderr: stdout stays clean for the hosting
// command's own output (result JSON, shell pipelines).
func ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		err = ServeConn(conn)
		conn.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dist worker: session ended: %v\n", err)
		}
	}
}

// dialTimeout dials a worker. Tests swap it to exercise an unreachable
// address without sending anything off the host.
var dialTimeout = net.DialTimeout

// NewTCPCoordinator dials one worker per address and returns a
// Coordinator over them. Shard s lives on addrs[s mod len(addrs)].
// Dialing and the handshake are bounded by opts.RoundTimeout (default
// DefaultRoundTimeout): an unreachable or unresponsive worker address
// fails the constructor within that budget instead of hanging on a
// deadline-free dial.
func NewTCPCoordinator(g *asgraph.Graph, cfg sim.Config, addrs []string, opts Options) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dist: no worker addresses")
	}
	timeout := opts.RoundTimeout
	if timeout <= 0 {
		timeout = DefaultRoundTimeout
	}
	deadline := time.Now().Add(timeout)
	conns := make([]Conn, 0, len(addrs))
	fail := func(err error) (*Coordinator, error) {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}
	tcpConns := make([]net.Conn, 0, len(addrs))
	for _, addr := range addrs {
		conn, err := dialTimeout("tcp", addr, time.Until(deadline))
		if err != nil {
			return fail(fmt.Errorf("dist: dialing worker %s: %w", addr, err))
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		// Bound the handshake I/O too: a worker that accepts but never
		// answers its hello (or never drains it) must not stall startup
		// past the timeout. Cleared once the handshake completes —
		// steady-state liveness is the coordinator's heartbeat-fed idle
		// deadline, not a socket deadline.
		conn.SetDeadline(deadline)
		conns = append(conns, conn)
		tcpConns = append(tcpConns, conn)
	}
	c, err := NewCoordinator(g, cfg, conns, opts)
	if err != nil {
		return nil, err // NewCoordinator closed the conns
	}
	for _, conn := range tcpConns {
		conn.SetDeadline(time.Time{})
	}
	return c, nil
}

package routing

import (
	"fmt"

	"sbgp/internal/asgraph"
)

// VerifyTree checks a resolved routing tree against the ground rules of
// the policy model, independently of how the tree was computed:
//
//   - structure: parents form a forest rooted at the destination, with
//     path lengths matching the static info;
//   - valley-free: once a path crosses a peer or provider edge, every
//     later edge (toward the destination) is a customer edge — i.e.
//     each AS-path is a customer-chain "up", at most one peering hop
//     across, then a provider-chain "down" (reading from the
//     destination outward);
//   - export-compliant (GR2): every node's next hop could legally have
//     announced its route (a peer or provider next hop must itself use
//     a customer route or be the destination);
//   - local preference: the route class recorded for each node matches
//     the relationship with its chosen parent;
//   - security: a node is flagged secure only if the whole path is
//     made of secure ASes (per the provided secure bitmap).
//
// It returns the first violation found, or nil.
func VerifyTree(g *asgraph.Graph, s *Static, t *Tree, secure []bool) error {
	n := int32(g.N())
	if t.Dest != s.Dest {
		return fmt.Errorf("tree destination %d does not match static %d", t.Dest, s.Dest)
	}
	for i := int32(0); i < n; i++ {
		if i == t.Dest {
			continue
		}
		switch s.Type[i] {
		case NoRoute:
			if t.Parent[i] != -1 {
				return fmt.Errorf("unreachable node %d has parent %d", i, t.Parent[i])
			}
			continue
		case SelfRoute:
			return fmt.Errorf("non-destination node %d marked SelfRoute", i)
		}
		p := t.Parent[i]
		if p < 0 || p >= n {
			return fmt.Errorf("reachable node %d has invalid parent %d", i, p)
		}
		// Parent must be a member of the tiebreak set.
		member := false
		for _, b := range s.Tiebreak(i) {
			if b == p {
				member = true
				break
			}
		}
		if !member {
			return fmt.Errorf("node %d chose %d outside its tiebreak set", i, p)
		}
		// Class consistency.
		var want asgraph.Rel
		switch s.Type[i] {
		case CustomerRoute:
			want = asgraph.RelCustomer
		case PeerRoute:
			want = asgraph.RelPeer
		case ProviderRoute:
			want = asgraph.RelProvider
		}
		if got := g.Rel(i, p); got != want {
			return fmt.Errorf("node %d: route class %v but next hop %d is its %v", i, s.Type[i], p, got)
		}
	}

	// Walk every path once: lengths, acyclicity, valley-freedom, GR2,
	// and security.
	for i := int32(0); i < n; i++ {
		if i == t.Dest || s.Type[i] == NoRoute {
			continue
		}
		path := t.PathTo(i)
		if path == nil {
			return fmt.Errorf("reachable node %d has no path", i)
		}
		if got := int32(len(path) - 1); got != s.Len[i] {
			return fmt.Errorf("node %d: path length %d, static says %d", i, got, s.Len[i])
		}
		// Read edges from i toward the destination. Legal shapes:
		// provider* (peer|ε) customer*  — i.e. go up, cross at most
		// once, then only down.
		const (
			up = iota
			across
			down
		)
		phase := up
		for k := 0; k+1 < len(path); k++ {
			rel := g.Rel(path[k], path[k+1])
			switch rel {
			case asgraph.RelProvider:
				if phase != up {
					return fmt.Errorf("node %d: valley in path %v (provider edge after %d)", i, path, phase)
				}
			case asgraph.RelPeer:
				if phase != up {
					return fmt.Errorf("node %d: second lateral move in path %v", i, path)
				}
				phase = across
			case asgraph.RelCustomer:
				phase = down
			default:
				return fmt.Errorf("node %d: path %v uses a non-edge", i, path)
			}
		}
		// GR2 at each hop: the next hop announced its route to path[k].
		// If path[k] is the next hop's peer or provider (i.e. the next
		// hop is path[k]'s peer or customer), only customer routes may
		// be exported; customers (next hop = path[k]'s provider)
		// receive everything.
		for k := 0; k+1 < len(path); k++ {
			hop := path[k+1]
			if hop == t.Dest {
				continue
			}
			rel := g.Rel(path[k], hop)
			if (rel == asgraph.RelPeer || rel == asgraph.RelCustomer) && s.Type[hop] != CustomerRoute {
				return fmt.Errorf("node %d: hop %d exported a %v route across a %v edge (GR2 violation)",
					i, hop, s.Type[hop], rel)
			}
		}
		// Security soundness: flagged secure ⇒ all on-path ASes secure.
		if t.Secure[i] && secure != nil {
			for _, x := range path {
				if !secure[x] {
					return fmt.Errorf("node %d flagged secure but path member %d is not", i, x)
				}
			}
		}
	}
	return nil
}

// PathTo reconstructs node i's AS path to the tree's destination as a
// sequence of node indices starting at i and ending at the destination.
// It returns nil if i has no route.
func (t *Tree) PathTo(i int32) []int32 {
	if i != t.Dest && t.Parent[i] < 0 {
		return nil
	}
	var path []int32
	for {
		path = append(path, i)
		if i == t.Dest {
			return path
		}
		i = t.Parent[i]
		if len(path) > len(t.Parent) {
			panic("routing: parent cycle in tree")
		}
	}
}

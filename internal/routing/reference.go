package routing

import (
	"fmt"

	"sbgp/internal/asgraph"
)

// Reference computes the routing tree for destination d by naive
// synchronous path-vector iteration: every node repeatedly selects its
// best route among the paths its neighbors currently announce (subject to
// the GR2 export rule and loop freedom) until a fixed point is reached.
// The deployment state is the one ResolveInto takes: secure[i] marks a
// deployed AS, breaks[i] one that applies the SecP tie-break step.
// It is deliberately independent of the fast Static/ResolveInto pipeline
// and exists to differential-test it; convergence is guaranteed for this
// policy class (Appendix G). It is O(rounds·E·pathlen) and intended for
// small graphs only.
func Reference(g *asgraph.Graph, d int32, secure, breaks []bool, tb Tiebreaker) (*Tree, error) {
	n := int32(g.N())
	paths := make([][]int32, n) // current chosen path, node..dest; nil = none
	paths[d] = []int32{d}

	type nbr struct {
		id  int32
		rel asgraph.Rel // relationship of neighbor from our perspective
	}
	neighbors := make([][]nbr, n)
	for i := int32(0); i < n; i++ {
		for _, c := range g.Customers(i) {
			neighbors[i] = append(neighbors[i], nbr{c, asgraph.RelCustomer})
		}
		for _, p := range g.Peers(i) {
			neighbors[i] = append(neighbors[i], nbr{p, asgraph.RelPeer})
		}
		for _, p := range g.Providers(i) {
			neighbors[i] = append(neighbors[i], nbr{p, asgraph.RelProvider})
		}
	}

	lpRank := func(r asgraph.Rel) int {
		switch r {
		case asgraph.RelCustomer:
			return 0
		case asgraph.RelPeer:
			return 1
		default:
			return 2
		}
	}
	fullySecure := func(path []int32) bool {
		for _, x := range path {
			if !secure[x] {
				return false
			}
		}
		return true
	}
	// exports reports whether b may announce its current path to i under
	// GR2: allowed iff i is b's customer, or b's path is its own prefix,
	// or b's path goes via one of b's customers.
	exports := func(b, i int32, bRel asgraph.Rel) bool {
		if bRel == asgraph.RelProvider {
			// b is i's provider => i is b's customer: b exports anything.
			return true
		}
		p := paths[b]
		if len(p) == 1 {
			return true // b's own prefix (b == d)
		}
		return g.Rel(b, p[1]) == asgraph.RelCustomer
	}
	containsNode := func(p []int32, x int32) bool {
		for _, y := range p {
			if y == x {
				return true
			}
		}
		return false
	}

	// Asynchronous (in-place) sweeps: node i immediately sees updates made
	// earlier in the same sweep. Appendix G's convergence argument is
	// constructive for exactly this activation style.
	maxIter := 4*g.N() + 8
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i := int32(0); i < n; i++ {
			if i == d {
				continue
			}
			var (
				bestPath []int32
				bestHop  int32 = -1
				bestLP   int
				bestLen  int
				bestSec  bool
			)
			useSecP := secure[i] && breaks[i]
			for _, nb := range neighbors[i] {
				if paths[nb.id] == nil || !exports(nb.id, i, nb.rel) || containsNode(paths[nb.id], i) {
					continue
				}
				cand := append([]int32{i}, paths[nb.id]...)
				lp := lpRank(nb.rel)
				ln := len(cand) - 1
				sec := fullySecure(cand)
				better := false
				switch {
				case bestHop == -1:
					better = true
				case lp != bestLP:
					better = lp < bestLP
				case ln != bestLen:
					better = ln < bestLen
				case useSecP && sec != bestSec:
					better = sec
				default:
					better = tb.Less(i, nb.id, bestHop)
				}
				if better {
					bestPath, bestHop, bestLP, bestLen, bestSec = cand, nb.id, lp, ln, sec
				}
			}
			if !pathsEqual(bestPath, paths[i]) {
				changed = true
			}
			paths[i] = bestPath
		}
		if !changed {
			tree := &Tree{
				Dest:   d,
				Parent: make([]int32, n),
				Secure: make([]bool, n),
			}
			for i := int32(0); i < n; i++ {
				if i == d || paths[i] == nil {
					tree.Parent[i] = -1
				} else {
					tree.Parent[i] = paths[i][1]
				}
				if paths[i] != nil {
					tree.Secure[i] = fullySecure(paths[i])
				}
			}
			return tree, nil
		}
	}
	return nil, fmt.Errorf("routing: reference path-vector did not converge after %d iterations", maxIter)
}

func pathsEqual(a, b []int32) bool {
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

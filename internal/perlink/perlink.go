// Package perlink models per-link S*BGP deployment (paper Section 8.3,
// Theorems 8.2/J.1/J.2): instead of an all-or-nothing switch, an ISP may
// sign and verify routes with only a subset of its neighbors. A path is
// fully secure iff every link on it is secured by both endpoints.
//
// The paper proves that choosing the utility-maximizing link subset is
// NP-hard under incoming utility (Theorem J.1, via the DILEMMA network
// of Figure 18), while under outgoing utility enabling every link is
// optimal (Theorem J.2). This package provides the link-level routing
// resolution, utility evaluation, a greedy hill-climbing optimizer for
// the NP-hard case, and the DILEMMA gadget itself.
package perlink

import (
	"fmt"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

// State records, per AS, which of its links it runs S*BGP on. A link
// (a,b) is secured iff both a enables it toward b and b toward a.
type State struct {
	g       *asgraph.Graph
	enabled []map[int32]bool
	// StubsBreakTies mirrors the node-level simulator's Section 6.7
	// switch: participating stubs apply SecP only when this is set.
	StubsBreakTies bool
}

// NewState returns a state with every link disabled.
func NewState(g *asgraph.Graph) *State {
	st := &State{g: g, enabled: make([]map[int32]bool, g.N()), StubsBreakTies: true}
	for i := range st.enabled {
		st.enabled[i] = make(map[int32]bool)
	}
	return st
}

// Enable turns on a's side of the link to b.
func (s *State) Enable(a, b int32) { s.enabled[a][b] = true }

// Disable turns off a's side of the link to b.
func (s *State) Disable(a, b int32) { delete(s.enabled[a], b) }

// EnableAll turns on every link of node i (full S*BGP at i).
func (s *State) EnableAll(i int32) {
	for _, c := range s.g.Customers(i) {
		s.Enable(i, c)
	}
	for _, p := range s.g.Peers(i) {
		s.Enable(i, p)
	}
	for _, p := range s.g.Providers(i) {
		s.Enable(i, p)
	}
}

// LinkSecured reports whether the link between a and b is secured by
// both endpoints.
func (s *State) LinkSecured(a, b int32) bool {
	return s.enabled[a][b] && s.enabled[b][a]
}

// Participates reports whether node i runs S*BGP on at least one link.
func (s *State) Participates(i int32) bool { return len(s.enabled[i]) > 0 }

// breaksTies reports whether node i applies the SecP tie-break.
func (s *State) breaksTies(i int32) bool {
	if !s.Participates(i) {
		return false
	}
	return !s.g.IsStub(i) || s.StubsBreakTies
}

// Links returns node i's neighbors (all relationship classes), the
// toggle domain for optimizers.
func Links(g *asgraph.Graph, i int32) []int32 {
	var out []int32
	out = append(out, g.Customers(i)...)
	out = append(out, g.Peers(i)...)
	out = append(out, g.Providers(i)...)
	return out
}

// Resolve computes the routing tree toward destination d under
// link-level security: a node's path is fully secure iff its link to
// its chosen next hop is secured and the next hop's path is secure.
// The tree must be cleared by the caller when switching destinations.
func (s *State) Resolve(ws *routing.Workspace, tree *routing.Tree, stc *routing.Static, tb routing.Tiebreaker) {
	d := stc.Dest
	tree.Dest = d
	tree.Parent[d] = -1
	// The destination's own "path" is trivially secure; the last link's
	// security is checked by its neighbors.
	tree.Secure[d] = true

	for _, i := range stc.Order() {
		cands := stc.Tiebreak(i)
		if len(cands) == 0 {
			continue
		}
		if s.breaksTies(i) {
			best := int32(-1)
			for _, b := range cands {
				if tree.Secure[b] && s.LinkSecured(i, b) && (best == -1 || tb.Less(i, b, best)) {
					best = b
				}
			}
			if best >= 0 {
				tree.Parent[i] = best
				tree.Secure[i] = true
				continue
			}
		}
		best := cands[0]
		for _, b := range cands[1:] {
			if tb.Less(i, b, best) {
				best = b
			}
		}
		tree.Parent[i] = best
		tree.Secure[i] = tree.Secure[best] && s.LinkSecured(i, best)
	}
}

// Utility computes node n's utility over all destinations under the
// given model, with routes resolved against the link state.
func Utility(st *State, model sim.UtilityModel, tb routing.Tiebreaker, n int32) (float64, error) {
	u, err := Utilities(st, model, tb)
	if err != nil {
		return 0, err
	}
	return u[n], nil
}

// Utilities computes every node's utility under the given model.
func Utilities(st *State, model sim.UtilityModel, tb routing.Tiebreaker) ([]float64, error) {
	g := st.g
	n := g.N()
	if tb == nil {
		return nil, fmt.Errorf("perlink: nil tiebreaker")
	}
	ws := routing.NewWorkspace(g)
	var tree routing.Tree
	weights := make([]float64, n)
	for i := int32(0); i < int32(n); i++ {
		weights[i] = g.Weight(i)
	}
	acc := make([]float64, n)
	inc := make([]float64, n)
	out := make([]float64, n)

	ws.Sweep(g.AllNodes(), nil, func(stc *routing.Static) {
		d := stc.Dest
		tree.Clear(n)
		st.Resolve(ws, &tree, stc, tb)

		// Subtree weights and customer-edge inflows.
		for i := range acc {
			acc[i] = 0
			inc[i] = 0
		}
		acc[d] = weights[d]
		order := stc.Order()
		for _, i := range order {
			acc[i] = weights[i]
		}
		for k := len(order) - 1; k >= 0; k-- {
			i := order[k]
			p := tree.Parent[i]
			acc[p] += acc[i]
			if stc.Type[i] == routing.ProviderRoute {
				inc[p] += acc[i]
			}
		}
		for i := int32(0); i < int32(n); i++ {
			if model == sim.Outgoing {
				if stc.Type[i] == routing.CustomerRoute {
					out[i] += acc[i] - weights[i]
				}
			} else if stc.Type[i] != routing.NoRoute || i == d {
				out[i] += inc[i]
			}
		}
	})
	return out, nil
}

// GreedyLinks hill-climbs node n's link set to maximize its utility,
// holding everyone else's links fixed: repeatedly toggle the single link
// with the best improvement until none helps. This is the natural
// heuristic for the NP-hard per-link optimization (Theorem J.1); under
// outgoing utility full enablement is a fixed point (Theorem J.2).
// It returns the chosen enabled set and the achieved utility.
func GreedyLinks(st *State, model sim.UtilityModel, tb routing.Tiebreaker, n int32) (map[int32]bool, float64, error) {
	return GreedyLinksAmong(st, model, tb, n, Links(st.g, n))
}

// GreedyLinksAmong is GreedyLinks restricted to a candidate subset of
// n's links, leaving the others as they are — useful for analyzing a
// single contested link while the rest of the configuration is pinned.
func GreedyLinksAmong(st *State, model sim.UtilityModel, tb routing.Tiebreaker, n int32, links []int32) (map[int32]bool, float64, error) {
	cur, err := Utility(st, model, tb, n)
	if err != nil {
		return nil, 0, err
	}
	maxPasses := len(links) + 2
	for pass := 0; pass < maxPasses; pass++ {
		bestLink, bestGain := int32(-1), 1e-9
		for _, l := range links {
			toggle(st, n, l)
			u, err := Utility(st, model, tb, n)
			toggle(st, n, l) // restore
			if err != nil {
				return nil, 0, err
			}
			if gain := u - cur; gain > bestGain {
				bestGain, bestLink = gain, l
			}
		}
		if bestLink < 0 {
			break
		}
		toggle(st, n, bestLink)
		cur += bestGain
		// Recompute exactly to avoid drift.
		if cur, err = Utility(st, model, tb, n); err != nil {
			return nil, 0, err
		}
	}
	chosen := make(map[int32]bool, len(st.enabled[n]))
	for l := range st.enabled[n] {
		chosen[l] = true
	}
	return chosen, cur, nil
}

func toggle(st *State, a, b int32) {
	if st.enabled[a][b] {
		st.Disable(a, b)
	} else {
		st.Enable(a, b)
	}
}

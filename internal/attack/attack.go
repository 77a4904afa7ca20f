// Package attack evaluates interdomain routing attacks during partial
// S*BGP deployment — the security side of the paper that its economic
// model deliberately brackets out (Sections 2.2.1 and 6.4 cite the
// methodology of Goldberg et al. [15] and leave quantifying resilience
// to future work; this package supplies that evaluation over the same
// substrate).
//
// The scenario: an attacker AS falsely announces the victim's prefix
// (the classic sub-prefix/origin hijack, announced to every neighbor).
// Every other AS picks between the legitimate route and the bogus one
// under the standard Gao-Rexford policies, with security entering in
// one of two ways:
//
//   - TieBreakOnly — the paper's deployment rule: secure ASes merely
//     prefer fully-secure paths among equally good ones. A bogus path
//     can never be fully secure (the attacker cannot forge the victim's
//     signatures), but it still wins on local preference or length.
//   - RejectInvalid — full path validation: validating ASes (full
//     S*BGP deployers; simplex stubs do not validate) discard bogus
//     routes outright, provided the victim itself is secure (an
//     insecure victim has no registered keys to validate against).
//
// Routes are computed with an asynchronous path-vector iteration (the
// same scheme as routing.Reference), which handles route rejection and
// re-convergence exactly; it is O(sweeps·E) per scenario.
package attack

import (
	"fmt"
	"math/rand"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
)

// Policy selects how deployed ASes treat the bogus announcement.
type Policy uint8

const (
	// TieBreakOnly applies S*BGP only through the SecP tie-break step
	// (the paper's Section 2.2.2 rule).
	TieBreakOnly Policy = iota
	// RejectInvalid makes validating ASes drop routes that fail path
	// validation (security-first deployment).
	RejectInvalid
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case TieBreakOnly:
		return "tiebreak-only"
	case RejectInvalid:
		return "reject-invalid"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// State carries the security configuration for an attack evaluation.
type State struct {
	// Secure marks ASes that deployed S*BGP (full or simplex).
	Secure []bool
	// Breaks marks ASes that apply the SecP tie-break.
	Breaks []bool
	// Validates marks ASes that perform full path validation — secure
	// ISPs and CPs, but not simplex stubs (Section 2.2.1).
	Validates []bool
}

// NewState derives the attack-relevant security state from a secure
// bitmap the way the deployment simulator does.
func NewState(g *asgraph.Graph, secure []bool, stubsBreakTies bool) State {
	st := State{
		Secure:    secure,
		Breaks:    make([]bool, len(secure)),
		Validates: make([]bool, len(secure)),
	}
	for i, s := range secure {
		if !s {
			continue
		}
		stub := g.IsStub(int32(i))
		st.Breaks[i] = !stub || stubsBreakTies
		st.Validates[i] = !stub
	}
	return st
}

// Scenario is one attack instance.
type Scenario struct {
	// Victim is the AS whose prefix is hijacked.
	Victim int32
	// Attacker falsely originates the victim's prefix.
	Attacker int32
}

// Result reports who fell for the attack.
type Result struct {
	// Deceived[i] is true if AS i's chosen route for the victim's
	// prefix leads to the attacker.
	Deceived []bool
	// NumDeceived counts deceived ASes (attacker and victim excluded).
	NumDeceived int
	// NumReachable counts ASes with any route to the prefix.
	NumReachable int
}

// Fraction returns the deceived share of ASes that have a route.
func (r Result) Fraction() float64 {
	if r.NumReachable == 0 {
		return 0
	}
	return float64(r.NumDeceived) / float64(r.NumReachable)
}

// route is a candidate announcement inside the solver.
type route struct {
	path []int32 // deciding AS first; ends at victim (or at the lie)
	fake bool    // originated by the attacker
}

// Simulate computes the routing outcome of the scenario under the given
// security state, policy and tie-breaker.
func Simulate(g *asgraph.Graph, sc Scenario, st State, pol Policy, tb routing.Tiebreaker) (Result, error) {
	return simulate(g, neighborLists(g), sc, st, pol, tb)
}

// nbr is one neighbor of an AS and its relationship to that AS.
type nbr struct {
	id  int32
	rel asgraph.Rel
}

// neighborLists returns every AS's neighbors in the order the solver
// offers them: customers, then peers, then providers.
func neighborLists(g *asgraph.Graph) [][]nbr {
	n := int32(g.N())
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
	return neighbors
}

// simulate is Simulate over precomputed neighbor lists.
func simulate(g *asgraph.Graph, neighbors [][]nbr, sc Scenario, st State, pol Policy, tb routing.Tiebreaker) (Result, error) {
	n := int32(g.N())
	if sc.Victim < 0 || sc.Victim >= n || sc.Attacker < 0 || sc.Attacker >= n {
		return Result{}, fmt.Errorf("attack: scenario nodes out of range")
	}
	if sc.Victim == sc.Attacker {
		return Result{}, fmt.Errorf("attack: attacker cannot be the victim")
	}
	if len(st.Secure) != g.N() || len(st.Breaks) != g.N() || len(st.Validates) != g.N() {
		return Result{}, fmt.Errorf("attack: state bitmaps must have %d entries", g.N())
	}

	// The attacker claims the direct path (attacker, victim). Its
	// announced length is 1 regardless of the truth.
	fakeRoute := &route{path: []int32{sc.Attacker, sc.Victim}, fake: true}

	chosen := make([]*route, n)
	chosen[sc.Victim] = &route{path: []int32{sc.Victim}}
	chosen[sc.Attacker] = fakeRoute

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
	// fullySecure reports whether i's route through rt — the path i
	// followed by rt.path — is fully secure.
	fullySecure := func(i int32, rt *route) bool {
		if rt.fake {
			// The attacker cannot produce the victim's signatures, so a
			// bogus path never validates as fully secure.
			return false
		}
		if !st.Secure[i] {
			return false
		}
		for _, x := range rt.path {
			if !st.Secure[x] {
				return false
			}
		}
		return true
	}
	victimSecure := st.Secure[sc.Victim]
	// exports reports whether b announces its chosen route to i. The
	// attacker exports its lie to everyone; honest ASes follow GR2.
	exports := func(b, i int32, bRel asgraph.Rel) bool {
		if b == sc.Attacker {
			return true
		}
		if bRel == asgraph.RelProvider {
			return true // i is b's customer
		}
		p := chosen[b].path
		if len(p) == 1 {
			return true // the victim's own announcement
		}
		return g.Rel(b, p[1]) == asgraph.RelCustomer
	}
	contains := func(p []int32, x int32) bool {
		for _, y := range p {
			if y == x {
				return true
			}
		}
		return false
	}

	maxIter := 4*g.N() + 8
	converged := false
	for iter := 0; iter < maxIter && !converged; iter++ {
		converged = true
		for i := int32(0); i < n; i++ {
			if i == sc.Victim || i == sc.Attacker {
				continue
			}
			// The best candidate is i followed by best's path; it is
			// only built when it replaces i's chosen route, so a sweep
			// that changes nothing allocates nothing.
			var (
				best    *route
				bestHop int32 = -1
				bestLP  int
				bestLen int
				bestSec bool
			)
			useSecP := st.Secure[i] && st.Breaks[i]
			reject := pol == RejectInvalid && st.Validates[i] && victimSecure
			for _, nb := range neighbors[i] {
				rt := chosen[nb.id]
				if rt == nil || !exports(nb.id, i, nb.rel) || contains(rt.path, i) {
					continue
				}
				if reject && rt.fake {
					continue
				}
				lp := lpRank(nb.rel)
				ln := len(rt.path)
				sec := fullySecure(i, rt)
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
					best, bestHop, bestLP, bestLen, bestSec = rt, nb.id, lp, ln, sec
				}
			}
			if !extends(chosen[i], i, best) {
				chosen[i] = nil
				if best != nil {
					chosen[i] = &route{path: append([]int32{i}, best.path...), fake: best.fake}
				}
				converged = false
			}
		}
	}
	if !converged {
		return Result{}, fmt.Errorf("attack: path vector did not converge after %d sweeps", maxIter)
	}

	res := Result{Deceived: make([]bool, n)}
	for i := int32(0); i < n; i++ {
		if i == sc.Victim || i == sc.Attacker || chosen[i] == nil {
			continue
		}
		res.NumReachable++
		if chosen[i].fake {
			res.Deceived[i] = true
			res.NumDeceived++
		}
	}
	return res, nil
}

// extends reports whether r is the route i gets through next — i
// followed by next's path, with next's origin — or both are nil.
func extends(r *route, i int32, next *route) bool {
	if r == nil || next == nil {
		return r == next
	}
	if r.fake != next.fake || len(r.path) != len(next.path)+1 || r.path[0] != i {
		return false
	}
	for k, x := range next.path {
		if r.path[k+1] != x {
			return false
		}
	}
	return true
}

// Summary aggregates attack outcomes over sampled attacker/victim pairs.
type Summary struct {
	Scenarios    int
	MeanDeceived float64 // mean fraction of routing ASes deceived
	MaxDeceived  float64
}

// Sample evaluates k uniform-random attacker/victim scenarios and
// aggregates the deceived fractions.
func Sample(g *asgraph.Graph, st State, pol Policy, tb routing.Tiebreaker, k int, seed int64) (Summary, error) {
	rng := rand.New(rand.NewSource(seed))
	neighbors := neighborLists(g)
	var sum Summary
	for sum.Scenarios < k {
		v := int32(rng.Intn(g.N()))
		a := int32(rng.Intn(g.N()))
		if v == a {
			continue
		}
		res, err := simulate(g, neighbors, Scenario{Victim: v, Attacker: a}, st, pol, tb)
		if err != nil {
			return sum, err
		}
		f := res.Fraction()
		sum.MeanDeceived += f
		if f > sum.MaxDeceived {
			sum.MaxDeceived = f
		}
		sum.Scenarios++
	}
	if sum.Scenarios > 0 {
		sum.MeanDeceived /= float64(sum.Scenarios)
	}
	return sum, nil
}

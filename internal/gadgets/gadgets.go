// Package gadgets builds the hand-crafted topologies from the paper's
// figures and appendix proofs, so that tests and examples can reproduce
// the exact mechanisms the paper argues from:
//
//   - BuyersRemorse (Fig. 13): an ISP with an incoming-utility incentive
//     to turn S*BGP off.
//   - PartialAttack (Fig. 15 / App. B): why preferring partially-secure
//     paths creates a new attack vector.
//   - SetCover (Fig. 16 / Thm 6.1): the reduction showing optimal
//     early-adopter choice is NP-hard.
//   - Oscillator (App. F): a state that never stabilizes under the
//     incoming utility model.
//
// The Fig. 2 diamond, two ISPs competing for a traffic source's
// equally-good paths to a multihomed stub, is a fixture of this
// package's tests (Diamond).
package gadgets

import (
	"sbgp/internal/asgraph"
)

// BuyersRemorse is the Figure 13 scenario: ISP N (the paper's AS 4755)
// transits a content provider's traffic to its stub customers. While N
// is secure, the CP's secure route enters N from its provider P (the
// paper's NTT) and earns N nothing under incoming utility; if N turns
// S*BGP off, the CP's tie-break falls back to the route through N's
// customer C (the paper's AS 9498), and the same traffic enters N on a
// customer edge — so N profits from disabling security.
//
//	CP(10) --customer-of--> C(15) and P(30)
//	P(30)  --provider-of--> N(20)
//	N(20)  --provider-of--> C(15), stubs(40..)
type BuyersRemorse struct {
	Graph *asgraph.Graph
	CP    int32 // content provider (the paper's Akamai)
	P     int32 // N's provider (the paper's NTT)
	N     int32 // the ISP with the turn-off incentive (the paper's 4755)
	C     int32 // N's customer that also serves CP (the paper's 9498)
	Stubs []int32
}

// NewBuyersRemorse builds the gadget with numStubs stub customers under
// N and the given CP traffic weight. The intended state: CP, P, N
// secure (plus N's simplex stubs); C insecure.
//
// CP's two routes to each stub are provider routes of equal length
// (via P and via C); C has the lower index, so the plain tie-break
// prefers the C route and only SecP pulls traffic onto the P route.
func NewBuyersRemorse(numStubs int, cpWeight float64) *BuyersRemorse {
	b := asgraph.NewBuilder()
	b.AddCustomer(30, 20) // P provider of N
	b.AddCustomer(20, 15) // N provider of C
	b.AddCustomer(15, 10) // C provider of CP
	b.AddCustomer(30, 10) // P provider of CP
	br := &BuyersRemorse{}
	for i := 0; i < numStubs; i++ {
		b.AddCustomer(20, int32(40+i))
	}
	b.MarkCP(10)
	b.SetWeight(10, cpWeight)
	g := b.MustBuild()
	br.Graph = g
	br.CP, br.P, br.N, br.C = g.Index(10), g.Index(30), g.Index(20), g.Index(15)
	for i := 0; i < numStubs; i++ {
		br.Stubs = append(br.Stubs, g.Index(int32(40+i)))
	}
	return br
}

// SecureBitmap returns the gadget's intended deployment state: CP, P, N
// and N's stubs secure; C insecure.
func (br *BuyersRemorse) SecureBitmap() []bool {
	secure := make([]bool, br.Graph.N())
	secure[br.CP] = true
	secure[br.P] = true
	secure[br.N] = true
	for _, s := range br.Stubs {
		secure[s] = true
	}
	return secure
}

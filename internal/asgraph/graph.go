// Package asgraph implements the labeled AS-level Internet graph that the
// S*BGP deployment model of Gill, Schapira and Goldberg (SIGCOMM 2011) is
// defined over.
//
// Nodes are autonomous systems (ASes). Edges carry one of the two standard
// business relationships: customer-to-provider (the customer pays the
// provider to transit its traffic) or peer-to-peer (settlement-free mutual
// transit of each other's customer traffic). Every AS belongs to one of
// three classes: stubs (no customers), ISPs (transit providers) and content
// providers (CPs), and carries a traffic weight modeling the volume of
// traffic it originates.
//
// The graph is immutable once built. Adjacency is stored in CSR
// (compressed sparse row) form, split by relationship, so that the
// three-stage routing BFS in package routing can iterate customers, peers
// and providers of a node without filtering.
package asgraph

import (
	"fmt"
	"slices"
	"sort"
)

// Class identifies the business role of an AS in the deployment model.
type Class uint8

const (
	// Stub is an AS with no customers that is not a content provider:
	// corporations, universities, small residential providers. Stubs pay
	// for Internet access and originate unit traffic weight.
	Stub Class = iota
	// ISP is a transit provider: it earns revenue by carrying customer
	// traffic and is the only class that makes deployment decisions in
	// the game.
	ISP
	// ContentProvider is one of the few ASes (five in the paper) that
	// originate a disproportionate fraction of Internet traffic and whose
	// revenue comes from content delivery, not transit.
	ContentProvider
)

// String returns a short human-readable class name.
func (c Class) String() string {
	switch c {
	case Stub:
		return "stub"
	case ISP:
		return "isp"
	case ContentProvider:
		return "cp"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Rel is the relationship of a neighbor from the perspective of a node:
// the neighbor is our customer, our peer, or our provider.
type Rel int8

const (
	// RelNone marks the absence of an edge.
	RelNone Rel = iota
	// RelCustomer: the neighbor pays us.
	RelCustomer
	// RelPeer: settlement-free peering.
	RelPeer
	// RelProvider: we pay the neighbor.
	RelProvider
)

// String returns a short human-readable relationship name.
func (r Rel) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	default:
		return "none"
	}
}

// Graph is an immutable labeled AS graph. Nodes are dense indices in
// [0, N). External AS numbers (ASNs) are kept as labels; all algorithms
// operate on indices.
type Graph struct {
	n int

	// CSR adjacency, one per relationship class. custAdj[custOff[i]:custOff[i+1]]
	// lists the customers of node i, in ascending index order.
	custOff []int32
	custAdj []int32
	peerOff []int32
	peerAdj []int32
	provOff []int32
	provAdj []int32

	class  []Class
	weight []float64

	// byClass[c] lists all nodes of class c in ascending index order,
	// precomputed at build time so hot paths iterate class members
	// without scanning all n nodes.
	byClass [3][]int32

	asn      []int32
	asnIndex map[int32]int32
}

// N returns the number of ASes in the graph.
func (g *Graph) N() int { return g.n }

// Customers returns the customer neighbors of node i. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Customers(i int32) []int32 {
	return g.custAdj[g.custOff[i]:g.custOff[i+1]]
}

// Peers returns the peer neighbors of node i. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Peers(i int32) []int32 {
	return g.peerAdj[g.peerOff[i]:g.peerOff[i+1]]
}

// Providers returns the provider neighbors of node i. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Providers(i int32) []int32 {
	return g.provAdj[g.provOff[i]:g.provOff[i+1]]
}

// Degree returns the total number of neighbors of node i.
func (g *Graph) Degree(i int32) int {
	return len(g.Customers(i)) + len(g.Peers(i)) + len(g.Providers(i))
}

// CustomerDegree returns the number of customers of node i.
func (g *Graph) CustomerDegree(i int32) int { return len(g.Customers(i)) }

// Class returns the business class of node i.
func (g *Graph) Class(i int32) Class { return g.class[i] }

// Weight returns the traffic weight originated by node i.
func (g *Graph) Weight(i int32) float64 { return g.weight[i] }

// ASN returns the external AS number label of node i.
func (g *Graph) ASN(i int32) int32 { return g.asn[i] }

// Index returns the dense node index for an external ASN, or -1 if the
// ASN is not in the graph.
func (g *Graph) Index(asn int32) int32 {
	if i, ok := g.asnIndex[asn]; ok {
		return i
	}
	return -1
}

// Rel returns the relationship of node b from a's perspective, or RelNone
// if a and b are not adjacent. It runs in O(log deg) time.
func (g *Graph) Rel(a, b int32) Rel {
	if contains(g.Customers(a), b) {
		return RelCustomer
	}
	if contains(g.Peers(a), b) {
		return RelPeer
	}
	if contains(g.Providers(a), b) {
		return RelProvider
	}
	return RelNone
}

func contains(sorted []int32, x int32) bool {
	i := sort.Search(len(sorted), func(j int) bool { return sorted[j] >= x })
	return i < len(sorted) && sorted[i] == x
}

// IsStub reports whether node i is a stub.
func (g *Graph) IsStub(i int32) bool { return g.class[i] == Stub }

// IsISP reports whether node i is an ISP.
func (g *Graph) IsISP(i int32) bool { return g.class[i] == ISP }

// IsCP reports whether node i is a content provider.
func (g *Graph) IsCP(i int32) bool { return g.class[i] == ContentProvider }

// Nodes returns all node indices of the given class, in ascending
// order. The returned slice is a fresh copy the caller may modify; for
// allocation-free read-only access use ISPs, Stubs or CPs.
func (g *Graph) Nodes(c Class) []int32 {
	if int(c) >= len(g.byClass) || len(g.byClass[c]) == 0 {
		return nil
	}
	return append([]int32(nil), g.byClass[c]...)
}

// AllNodes returns every node index, 0 to N()-1, in a fresh slice.
func (g *Graph) AllNodes() []int32 {
	all := make([]int32, g.n)
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// ISPs returns all ISP node indices in ascending order. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) ISPs() []int32 { return g.byClass[ISP] }

// Stubs returns all stub node indices in ascending order. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) Stubs() []int32 { return g.byClass[Stub] }

// CPs returns all content-provider node indices in ascending order. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) CPs() []int32 { return g.byClass[ContentProvider] }

// initClassLists fills byClass; Build calls it once after classes are
// assigned.
func (g *Graph) initClassLists() {
	var count [3]int
	for _, c := range g.class {
		if int(c) < len(count) {
			count[c]++
		}
	}
	for c, k := range count {
		g.byClass[c] = make([]int32, 0, k)
	}
	for i, c := range g.class {
		if int(c) < len(g.byClass) {
			g.byClass[c] = append(g.byClass[c], int32(i))
		}
	}
}

// EdgeCount returns the number of undirected customer-provider edges and
// the number of undirected peering edges.
func (g *Graph) EdgeCount() (custProv, peering int) {
	return len(g.custAdj), len(g.peerAdj) / 2
}

// SameTopology reports whether a and b are the same AS graph apart from
// traffic weights: equal N, ASN labels, classes and all three CSR
// adjacencies, compared exactly. Graphs that differ only by
// SetCPTrafficFraction, or a graph and its Write/Read round trip, are
// one topology, so every weight-independent computation over one —
// route classes, lengths, tiebreak sets, winners — holds for the other
// node for node. It runs in O(N+E), and in O(1) when a == b.
func SameTopology(a, b *Graph) bool {
	if a == b {
		return true
	}
	return a.n == b.n &&
		slices.Equal(a.asn, b.asn) &&
		slices.Equal(a.class, b.class) &&
		slices.Equal(a.custOff, b.custOff) && slices.Equal(a.custAdj, b.custAdj) &&
		slices.Equal(a.peerOff, b.peerOff) && slices.Equal(a.peerAdj, b.peerAdj) &&
		slices.Equal(a.provOff, b.provOff) && slices.Equal(a.provAdj, b.provAdj)
}

// SetCPTrafficFraction assigns traffic weights per the paper's model
// (Section 3.1): all stubs and ISPs originate unit weight, and the
// content providers collectively originate fraction x of all traffic,
// split equally among them:
//
//	wCP = x*(N-k) / (k*(1-x))
//
// where k is the number of CPs. With the paper's graph (N=36,964, k=5)
// and x=0.10 this yields wCP ≈ 821, matching Section 7.1.
//
// It panics if x is outside [0,1) or the graph has no content providers
// when x > 0.
func (g *Graph) SetCPTrafficFraction(x float64) {
	if x < 0 || x >= 1 {
		panic(fmt.Sprintf("asgraph: CP traffic fraction %v outside [0,1)", x))
	}
	cps := g.Nodes(ContentProvider)
	k := float64(len(cps))
	for i := range g.weight {
		g.weight[i] = 1
	}
	if x == 0 {
		return
	}
	if k == 0 {
		panic("asgraph: CP traffic fraction > 0 but graph has no content providers")
	}
	wCP := x * (float64(g.n) - k) / (k * (1 - x))
	for _, cp := range cps {
		g.weight[cp] = wCP
	}
}

// CPWeightFor returns the per-CP weight that SetCPTrafficFraction would
// assign for a graph with n nodes, k CPs and CP traffic fraction x. It is
// exported for reporting and tests.
func CPWeightFor(n, k int, x float64) float64 {
	return x * (float64(n) - float64(k)) / (float64(k) * (1 - x))
}

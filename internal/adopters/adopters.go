// Package adopters implements early-adopter selection strategies for the
// S*BGP deployment game (paper Section 6).
//
// Choosing the optimal early-adopter set is NP-hard — even to
// approximate within a constant factor (Theorem 6.1, via set cover) — so
// the paper evaluates heuristics: the top Tier-1 ISPs by degree, the
// five content providers, combinations, and random sets. Greedy adds a
// marginal-gain heuristic on top, for studies that can afford repeated
// simulation runs.
package adopters

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"sbgp/internal/asgraph"
	"sbgp/internal/sim"
)

// ContentProviders returns all content-provider nodes (the paper's
// "5 CPs" set).
func ContentProviders(g *asgraph.Graph) []int32 {
	return g.Nodes(asgraph.ContentProvider)
}

// TopISPs returns the k highest-degree ISPs (the paper's "top k" sets;
// k=5 approximates the Tier-1s, k=200 its largest set).
func TopISPs(g *asgraph.Graph, k int) []int32 {
	return asgraph.TopByDegree(g, k, asgraph.ISP)
}

// CPsPlusTopISPs returns the union of the content providers and the k
// highest-degree ISPs (the paper's case-study set with k=5).
func CPsPlusTopISPs(g *asgraph.Graph, k int) []int32 {
	out := ContentProviders(g)
	return append(out, TopISPs(g, k)...)
}

// RandomISPs returns k ISPs drawn uniformly without replacement using
// the given seed (the paper's "200 random" baseline).
func RandomISPs(g *asgraph.Graph, k int, seed int64) []int32 {
	isps := g.Nodes(asgraph.ISP)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(isps), func(i, j int) { isps[i], isps[j] = isps[j], isps[i] })
	if k > len(isps) {
		k = len(isps)
	}
	return isps[:k]
}

// Greedy selects k early adopters by greedy marginal gain: at each step
// it adds the candidate whose inclusion maximizes the number of secure
// ASes when the deployment process terminates. Because each evaluation
// is a full simulation run, candidates should be a small pool (e.g.
// TopISPs(g, 20)). cfg.EarlyAdopters is ignored. The returned set is
// ordered by selection.
//
// This attacks the NP-hard optimization of Theorem 6.1 heuristically;
// unlike in social-network influence models, the objective here is not
// submodular, so greedy carries no approximation guarantee.
func Greedy(g *asgraph.Graph, cfg sim.Config, candidates []int32, k int) ([]int32, error) {
	if k > len(candidates) {
		k = len(candidates)
	}
	chosen := make([]int32, 0, k)
	remaining := append([]int32(nil), candidates...)
	best := -1
	for len(chosen) < k {
		bestIdx, bestGain := -1, best
		for idx, c := range remaining {
			cfg.EarlyAdopters = append(append([]int32(nil), chosen...), c)
			s, err := sim.New(g, cfg)
			if err != nil {
				return nil, fmt.Errorf("adopters: %w", err)
			}
			res := s.Run()
			if res.Final.SecureASes > bestGain {
				bestGain = res.Final.SecureASes
				bestIdx = idx
			}
		}
		if bestIdx < 0 {
			break // no candidate improves the outcome
		}
		chosen = append(chosen, remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		best = bestGain
	}
	return chosen, nil
}

// Parse resolves a textual early-adopter specification, the grammar the
// command-line tools share:
//
//	none | cps | topK | cps+topK | randomK
//
// where K is a positive integer (e.g. "top5", "cps+top5", "random200").
// randomK draws with the given seed.
func Parse(g *asgraph.Graph, spec string, seed int64) ([]int32, error) {
	switch {
	case spec == "none" || spec == "":
		return nil, nil
	case spec == "cps":
		return ContentProviders(g), nil
	case strings.HasPrefix(spec, "cps+top"):
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "cps+top"))
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("adopters: bad spec %q", spec)
		}
		return CPsPlusTopISPs(g, k), nil
	case strings.HasPrefix(spec, "top"):
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "top"))
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("adopters: bad spec %q", spec)
		}
		return TopISPs(g, k), nil
	case strings.HasPrefix(spec, "random"):
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "random"))
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("adopters: bad spec %q", spec)
		}
		return RandomISPs(g, k, seed), nil
	}
	return nil, fmt.Errorf("adopters: unknown strategy %q", spec)
}

// Package core implements algorithm Sampler from "Message Reduction in the
// LOCAL Model Is a Free Lunch" (Bitton, Emek, Izumi, Kutten; DISC 2019): a
// randomized spanner construction with constant stretch, near-linear size,
// and — in its distributed form — o(m) message complexity with no round
// blow-up.
//
// The package provides two interchangeable implementations:
//
//   - Build: the centralized reference implementation of Section 3, used for
//     spanner-quality experiments and as the oracle against which the
//     distributed version is validated;
//   - BuildDistributed: the LOCAL-model implementation of Section 5, which
//     simulates each virtual node of the cluster hierarchy by
//     broadcast/convergecast over its cluster tree and realizes the paper's
//     O(3^k·h) round and Õ(n^{1+δ+1/h}) message bounds.
package core

import (
	"fmt"
	"math"
)

// Params are the knobs of algorithm Sampler.
//
// The paper's thresholds carry whp-machinery constants: a node aims to find
// c·n^{2^j·δ}·log n neighbors per level and samples c²·n^{2^j·δ+1/h}·log³ n
// query edges per trial. Those powers of log n exist to drive the failure
// probability below n^{-c}; at experiment scale (n in the thousands) using
// the analysis constants verbatim would make every node query essentially
// its whole neighborhood and the spanner degenerate to the input graph.
// The sample count therefore uses log n, not log³ n (the standard empirical
// scaling); C keeps the paper's coupling of the two constants.
//
// The fail-safe is always on in both implementations: a node that finishes
// its trials neither light (all neighbors found) nor merged into a cluster
// queries its remaining unexplored edges exhaustively, making it light. The
// paper instead argues this case away whp (Lemmas 5–6); the fail-safe turns
// the whp stretch guarantee into a worst-case one at the cost of extra
// messages in the rare failure event. Result.FailSafeNodes and
// DistResult.FailSafeNodes report how often it fires, so experiments can
// quote the whp behaviour.
type Params struct {
	// K is the paper's k: number of contraction levels, 1 ≤ K. The stretch
	// bound is 2·3^K − 1 and the size exponent is 1 + 1/(2^{K+1}−1).
	K int
	// H is the paper's h: each level runs at most 2·H sampling trials, and
	// the per-trial sample count carries a factor n^{1/H}. Larger H means
	// more rounds and fewer messages.
	H int
	// C scales the target neighbor count ("threshold") and, squared, the
	// per-trial sample count:
	//   threshold_j = max(1, ceil(C · n^{2^j·δ} · log2(n)))
	//   samples_j   = max(1, ceil(C² · n^{2^j·δ + 1/H} · log2(n))).
	C float64
	// DisablePeeling is an ablation knob (experiment E10): when set, a
	// queried neighbor's parallel edges are NOT removed from the unexplored
	// pool — only the sampled edge itself is — so high-multiplicity
	// neighbors keep swallowing samples. This is exactly the failure mode
	// the paper's iterative peeling idea exists to prevent (Section 1.3).
	// Only the centralized Sampler (Build) supports it; BuildDistributed
	// rejects it with an error.
	DisablePeeling bool
}

// Default returns the parameters used by the experiments: constant 1.
func Default(k, h int) Params {
	return Params{K: k, H: h, C: 1}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("core: K = %d, need K >= 1", p.K)
	}
	if p.H < 1 {
		return fmt.Errorf("core: H = %d, need H >= 1", p.H)
	}
	if p.C <= 0 {
		return fmt.Errorf("core: C = %v, need C > 0", p.C)
	}
	return nil
}

// Delta returns δ = 1/(2^{K+1} − 1), the spanner's size exponent surplus.
func (p Params) Delta() float64 { return 1 / float64((int64(1)<<(p.K+1))-1) }

// Epsilon returns 1/H, the message exponent surplus.
func (p Params) Epsilon() float64 { return 1 / float64(p.H) }

// StretchBound returns the worst-case stretch 2·3^K − 1 certified by
// Theorem 9.
func (p Params) StretchBound() int { return 2*pow3(p.K) - 1 }

// pow3 returns 3^j for small j.
func pow3(j int) int {
	out := 1
	for i := 0; i < j; i++ {
		out *= 3
	}
	return out
}

// logn returns log2(n) clamped below at 1 so thresholds stay monotone for
// tiny graphs.
func logn(n int) float64 { return math.Max(1, math.Log2(float64(n))) }

// centerProb returns p_j = n^{-2^j·δ}, the level-j center-marking
// probability.
func (p Params) centerProb(j, n int) float64 {
	return math.Pow(float64(n), -float64(int64(1)<<j)*p.Delta())
}

// threshold returns the level-j target neighbor count
// min-capped at 1: ceil(C · n^{2^j·δ} · log2(n)).
func (p Params) threshold(j, n int) int {
	v := p.C * math.Pow(float64(n), float64(int64(1)<<j)*p.Delta()) * logn(n)
	return atLeast1(v)
}

// samplesPerTrial returns the level-j per-trial query-edge sample count
// min-capped at 1: ceil(C² · n^{2^j·δ + 1/H} · log2(n)).
func (p Params) samplesPerTrial(j, n int) int {
	v := p.C * p.C * math.Pow(float64(n), float64(int64(1)<<j)*p.Delta()+p.Epsilon()) * logn(n)
	return atLeast1(v)
}

func atLeast1(v float64) int {
	iv := int(math.Ceil(v))
	if iv < 1 {
		return 1
	}
	return iv
}

// PredictedSizeExponent returns 1 + δ, the exponent of the paper's Õ(n^{1+δ})
// spanner size bound; experiment E1 fits measured sizes against it.
func (p Params) PredictedSizeExponent() float64 { return 1 + p.Delta() }

// PredictedMessageExponent returns 1 + δ + 1/H from Theorem 11.
func (p Params) PredictedMessageExponent() float64 { return 1 + p.Delta() + p.Epsilon() }

//go:build !bitset_scalar

package bitset

import "math/bits"

// This file holds the striped word cores behind every exported kernel
// and set operation. Above a width gate, each core processes
// stripeWords words per iteration with independent accumulators — the
// unrolled bodies have no loop-carried dependency between lanes, so
// the four popcounts issue back to back instead of serializing on one
// register — and finishes with a scalar tail over the remaining words
// (the trailing word's dead bits are already masked by the
// package-wide width invariant, so the tail needs no extra masking).
// Below the gate the cores run the plain one-word loop: the stripe
// prologue (operand re-slicing, truncated bound, accumulator merge) is
// pure overhead when there are only a handful of stripes, and measured
// 15–30% slower than scalar on ≤16-word sets.
//
// The exported signatures in bitset.go are unchanged. Building with
// `-tags bitset_scalar` swaps in the original one-word-at-a-time loops
// from kernels_scalar.go as a differential reference; striped_test.go
// asserts the two builds agree on every width boundary, including the
// gate boundaries.
//
// Loop shape and thresholds were chosen by measurement on the
// development hardware (see README "Kernels"): an index loop over a
// truncated bound (n := len &^ 3) with the secondary operands
// pre-shrunk to len(a) — re-slicing the operands each stripe
// (a = a[4:]) loses the gain to slice-header updates, and bounding the
// loop by i+4 <= len defeats bounds-check elimination; 8-wide stripes
// measured no better than 4-wide on long sets. The dense-input ceiling
// is real (a scalar popcount loop already runs near the issue width of
// this hardware), so the count/logic stripes only engage on long sets;
// the weighted-sum cores additionally skip the bit-walk of all-zero
// stripes, which pays 1.5–2.5× on the sparse tidsets of deep search
// branches and engages at a much lower width.
const (
	// stripeWords is the unroll factor of the striped cores, in words.
	stripeWords = 4
	// stripeMinWords gates the striped count/logic/predicate paths:
	// shorter inputs run the scalar loop. Dense-input crossover
	// measured between 64 words (scalar ~6% ahead) and 256 words
	// (striped level to ~1.1× ahead).
	stripeMinWords = 128
	// stripeMinSumWords gates the weighted-sum stripes (which carry
	// the all-zero-stripe skip): the skip already wins on sparse sets
	// at a few stripes, so only sub-2-stripe inputs run scalar.
	stripeMinSumWords = 2 * stripeWords
	// scalarKernels reports which build of the cores is active, for
	// tests and benchmarks that label their output.
	scalarKernels = false
)

// countWords returns Σ popcount(a[i]).
func countWords(a []uint64) int {
	i, c := 0, 0
	if len(a) >= stripeMinWords {
		var c0, c1, c2, c3 int
		n := len(a) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			c0 += bits.OnesCount64(a[i])
			c1 += bits.OnesCount64(a[i+1])
			c2 += bits.OnesCount64(a[i+2])
			c3 += bits.OnesCount64(a[i+3])
		}
		c = c0 + c1 + c2 + c3
	}
	for ; i < len(a); i++ {
		c += bits.OnesCount64(a[i])
	}
	return c
}

// andCountWords returns Σ popcount(a[i] & b[i]).
func andCountWords(a, b []uint64) int {
	b = b[:len(a)]
	i, c := 0, 0
	if len(a) >= stripeMinWords {
		var c0, c1, c2, c3 int
		n := len(a) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			c0 += bits.OnesCount64(a[i] & b[i])
			c1 += bits.OnesCount64(a[i+1] & b[i+1])
			c2 += bits.OnesCount64(a[i+2] & b[i+2])
			c3 += bits.OnesCount64(a[i+3] & b[i+3])
		}
		c = c0 + c1 + c2 + c3
	}
	for ; i < len(a); i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

// andNotCountWords returns Σ popcount(a[i] &^ b[i]).
func andNotCountWords(a, b []uint64) int {
	b = b[:len(a)]
	i, c := 0, 0
	if len(a) >= stripeMinWords {
		var c0, c1, c2, c3 int
		n := len(a) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			c0 += bits.OnesCount64(a[i] &^ b[i])
			c1 += bits.OnesCount64(a[i+1] &^ b[i+1])
			c2 += bits.OnesCount64(a[i+2] &^ b[i+2])
			c3 += bits.OnesCount64(a[i+3] &^ b[i+3])
		}
		c = c0 + c1 + c2 + c3
	}
	for ; i < len(a); i++ {
		c += bits.OnesCount64(a[i] &^ b[i])
	}
	return c
}

// coverCountsWords returns Σ popcount(t[i] & u[i]) and
// Σ popcount(t[i] &^ (c[i] | e[i])) in one pass over the four streams.
func coverCountsWords(t, u, c, e []uint64) (covered, errs int) {
	u = u[:len(t)]
	c = c[:len(t)]
	e = e[:len(t)]
	i := 0
	if len(t) >= stripeMinWords {
		var c0, c1, c2, c3, e0, e1, e2, e3 int
		n := len(t) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			c0 += bits.OnesCount64(t[i] & u[i])
			c1 += bits.OnesCount64(t[i+1] & u[i+1])
			c2 += bits.OnesCount64(t[i+2] & u[i+2])
			c3 += bits.OnesCount64(t[i+3] & u[i+3])
			e0 += bits.OnesCount64(t[i] &^ (c[i] | e[i]))
			e1 += bits.OnesCount64(t[i+1] &^ (c[i+1] | e[i+1]))
			e2 += bits.OnesCount64(t[i+2] &^ (c[i+2] | e[i+2]))
			e3 += bits.OnesCount64(t[i+3] &^ (c[i+3] | e[i+3]))
		}
		covered, errs = c0+c1+c2+c3, e0+e1+e2+e3
	}
	for ; i < len(t); i++ {
		covered += bits.OnesCount64(t[i] & u[i])
		errs += bits.OnesCount64(t[i] &^ (c[i] | e[i]))
	}
	return covered, errs
}

// intersectWords sets dst[i] = a[i] & b[i] and returns the popcount of
// the result. dst may alias a or b.
func intersectWords(dst, a, b []uint64) int {
	a = a[:len(dst)]
	b = b[:len(dst)]
	i, c := 0, 0
	if len(dst) >= stripeMinWords {
		var c0, c1, c2, c3 int
		n := len(dst) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			w0 := a[i] & b[i]
			w1 := a[i+1] & b[i+1]
			w2 := a[i+2] & b[i+2]
			w3 := a[i+3] & b[i+3]
			dst[i], dst[i+1], dst[i+2], dst[i+3] = w0, w1, w2, w3
			c0 += bits.OnesCount64(w0)
			c1 += bits.OnesCount64(w1)
			c2 += bits.OnesCount64(w2)
			c3 += bits.OnesCount64(w3)
		}
		c = c0 + c1 + c2 + c3
	}
	for ; i < len(dst); i++ {
		w := a[i] & b[i]
		dst[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// andWords sets a[i] &= b[i].
func andWords(a, b []uint64) {
	b = b[:len(a)]
	i := 0
	if len(a) >= stripeMinWords {
		n := len(a) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			a[i] &= b[i]
			a[i+1] &= b[i+1]
			a[i+2] &= b[i+2]
			a[i+3] &= b[i+3]
		}
	}
	for ; i < len(a); i++ {
		a[i] &= b[i]
	}
}

// orWords sets a[i] |= b[i] (union).
func orWords(a, b []uint64) {
	b = b[:len(a)]
	i := 0
	if len(a) >= stripeMinWords {
		n := len(a) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			a[i] |= b[i]
			a[i+1] |= b[i+1]
			a[i+2] |= b[i+2]
			a[i+3] |= b[i+3]
		}
	}
	for ; i < len(a); i++ {
		a[i] |= b[i]
	}
}

// andNotWords sets a[i] &^= b[i] (subtraction).
func andNotWords(a, b []uint64) {
	b = b[:len(a)]
	i := 0
	if len(a) >= stripeMinWords {
		n := len(a) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			a[i] &^= b[i]
			a[i+1] &^= b[i+1]
			a[i+2] &^= b[i+2]
			a[i+3] &^= b[i+3]
		}
	}
	for ; i < len(a); i++ {
		a[i] &^= b[i]
	}
}

// xorWords sets a[i] ^= b[i].
func xorWords(a, b []uint64) {
	b = b[:len(a)]
	i := 0
	if len(a) >= stripeMinWords {
		n := len(a) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			a[i] ^= b[i]
			a[i+1] ^= b[i+1]
			a[i+2] ^= b[i+2]
			a[i+3] ^= b[i+3]
		}
	}
	for ; i < len(a); i++ {
		a[i] ^= b[i]
	}
}

// equalWords reports a[i] == b[i] for all i, early-exiting per stripe:
// the four lanes fold into one OR before the single branch.
func equalWords(a, b []uint64) bool {
	b = b[:len(a)]
	i := 0
	if len(a) >= stripeMinWords {
		n := len(a) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			if (a[i]^b[i])|(a[i+1]^b[i+1])|(a[i+2]^b[i+2])|(a[i+3]^b[i+3]) != 0 {
				return false
			}
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subsetWords reports a[i] &^ b[i] == 0 for all i (a ⊆ b), early-exiting
// per stripe.
func subsetWords(a, b []uint64) bool {
	b = b[:len(a)]
	i := 0
	if len(a) >= stripeMinWords {
		n := len(a) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			if (a[i]&^b[i])|(a[i+1]&^b[i+1])|(a[i+2]&^b[i+2])|(a[i+3]&^b[i+3]) != 0 {
				return false
			}
		}
	}
	for ; i < len(a); i++ {
		if a[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// intersectsWords reports a[i] & b[i] != 0 for some i, early-exiting per
// stripe.
func intersectsWords(a, b []uint64) bool {
	b = b[:len(a)]
	i := 0
	if len(a) >= stripeMinWords {
		n := len(a) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			if (a[i]&b[i])|(a[i+1]&b[i+1])|(a[i+2]&b[i+2])|(a[i+3]&b[i+3]) != 0 {
				return true
			}
		}
	}
	for ; i < len(a); i++ {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// intersectSumWords sets dst[i] = a[i] & b[i] and returns the weighted
// sum of the result's set bits, accumulated strictly in ascending bit
// order (each addition is total += w[bit], same association as the
// scalar core — the float result is bit-identical by contract), and the
// result's popcount. The stripe only unrolls the word intersection; an
// all-zero stripe skips its four bit walks entirely, which is the
// common case on the sparse tidsets of deep search branches.
func intersectSumWords(dst, a, b []uint64, w []float64) (float64, int) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	total := 0.0
	i, c := 0, 0
	if len(dst) >= stripeMinSumWords {
		n := len(dst) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			w0 := a[i] & b[i]
			w1 := a[i+1] & b[i+1]
			w2 := a[i+2] & b[i+2]
			w3 := a[i+3] & b[i+3]
			dst[i], dst[i+1], dst[i+2], dst[i+3] = w0, w1, w2, w3
			if w0|w1|w2|w3 != 0 {
				c += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
					bits.OnesCount64(w2) + bits.OnesCount64(w3)
				base := i * wordBits
				total = addWeighted(total, w0, w, base)
				total = addWeighted(total, w1, w, base+wordBits)
				total = addWeighted(total, w2, w, base+2*wordBits)
				total = addWeighted(total, w3, w, base+3*wordBits)
			}
		}
	}
	for ; i < len(dst); i++ {
		word := a[i] & b[i]
		dst[i] = word
		c += bits.OnesCount64(word)
		total = addWeighted(total, word, w, i*wordBits)
	}
	return total, c
}

// weightedSumWords returns the weighted sum of a's set bits, ascending
// bit order, with the same all-zero stripe skip as intersectSumWords.
func weightedSumWords(a []uint64, w []float64) float64 {
	total := 0.0
	i := 0
	if len(a) >= stripeMinSumWords {
		n := len(a) &^ (stripeWords - 1)
		for ; i < n; i += stripeWords {
			w0, w1, w2, w3 := a[i], a[i+1], a[i+2], a[i+3]
			if w0|w1|w2|w3 != 0 {
				base := i * wordBits
				total = addWeighted(total, w0, w, base)
				total = addWeighted(total, w1, w, base+wordBits)
				total = addWeighted(total, w2, w, base+2*wordBits)
				total = addWeighted(total, w3, w, base+3*wordBits)
			}
		}
	}
	for ; i < len(a); i++ {
		total = addWeighted(total, a[i], w, i*wordBits)
	}
	return total
}

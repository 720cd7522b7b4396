// Package bitset provides dense, fixed-width bitmaps used throughout the
// repository both as transaction tidsets (one bit per transaction) and as
// item rows (one bit per item of a view). All operations are word-wise on
// 64-bit words; none allocate unless explicitly documented.
//
// Every kernel and set operation runs on a shared layer of word cores
// that, above a measured width gate, process 4-word stripes per
// iteration with a scalar tail, and below it run the plain one-word
// loop (see kernels_striped.go). Building with `-tags bitset_scalar`
// swaps in the original one-word loops as a differential reference;
// the exported signatures and all results — including the bit-exact
// float accumulation order of IntersectIntoSum and WeightedSum — are
// identical under both builds.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// WordBits is the width of one storage word, for hot loops that walk
// Words() directly and need to convert word indices to bit positions.
const WordBits = wordBits

// Set is a fixed-width bitmap. The zero value is an empty set of width 0;
// use New to create a set of a given width. Bits at positions >= width are
// always zero (maintained as an invariant by all operations).
type Set struct {
	words []uint64
	n     int // width in bits
}

// New returns an empty set able to hold n bits.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative width %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewBatch returns count empty sets of width n carved out of a single
// backing words allocation, for bulk materialization of tidsets that
// are retained together (e.g. the per-view supports of a candidate
// set): two allocations instead of 2·count. The sets are independent —
// their word slices do not overlap — but share the backing array's
// lifetime.
func NewBatch(count, n int) []Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative width %d", n))
	}
	w := (n + wordBits - 1) / wordBits
	words := make([]uint64, count*w)
	sets := make([]Set, count)
	for i := range sets {
		sets[i] = Set{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
	}
	return sets
}

// FromIndices returns a set of width n with exactly the given bits set.
func FromIndices(n int, idx []int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// Len returns the width of the set in bits.
func (s *Set) Len() int { return s.n }

// Words exposes the underlying words for read-only iteration by hot loops.
func (s *Set) Words() []uint64 { return s.words }

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	return countWords(s.words)
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with the contents of o. Widths must match.
func (s *Set) Copy(o *Set) {
	s.mustMatch(o)
	copy(s.words, o.words)
}

// Clear unsets all bits.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Reset re-widths s to n bits and clears every bit, growing in place:
// the existing word storage is reused whenever its capacity suffices,
// so resetting inside a hot loop does not allocate in steady state.
func (s *Set) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative width %d", n))
	}
	w := (n + wordBits - 1) / wordBits
	if cap(s.words) >= w {
		s.words = s.words[:w]
		for i := range s.words {
			s.words[i] = 0
		}
	} else {
		s.words = make([]uint64, w)
	}
	s.n = n
}

// Fill sets all bits in [0, width).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the bits beyond the width in the last word.
func (s *Set) trim() {
	if r := s.n % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(r)) - 1
	}
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: width mismatch %d != %d", s.n, o.n))
	}
}

// And sets s = s ∩ o.
func (s *Set) And(o *Set) {
	s.mustMatch(o)
	andWords(s.words, o.words)
}

// Or sets s = s ∪ o (set union).
func (s *Set) Or(o *Set) {
	s.mustMatch(o)
	orWords(s.words, o.words)
}

// AndNot sets s = s \ o (set subtraction).
func (s *Set) AndNot(o *Set) {
	s.mustMatch(o)
	andNotWords(s.words, o.words)
}

// Xor sets s = s △ o (symmetric difference).
func (s *Set) Xor(o *Set) {
	s.mustMatch(o)
	xorWords(s.words, o.words)
}

// IntersectInto sets dst = a ∩ b, reusing dst's storage, and returns
// |dst| — counted in the same pass, so callers that need the support
// of the intersection (or only whether it is empty) pay no second walk.
// All three must have the same width. dst may alias a or b.
func IntersectInto(dst, a, b *Set) int {
	a.mustMatch(b)
	a.mustMatch(dst)
	return intersectWords(dst.words, a.words, b.words)
}

// IntersectIntoSum sets dst = a ∩ b like IntersectInto and returns
// Σ_{i ∈ dst} w[i], accumulated in ascending bit order — the same order
// as ForEach, so the sum is bit-identical to iterating the intersection
// after the fact — together with |dst|. The striped core only unrolls
// the word intersection; the accumulation is still one addition per set
// bit in ascending bit order, so the float result is bit-identical
// under both kernel builds (that identity is part of the contract — the
// exact search's rub bounds must not depend on the kernel build). w
// must cover the set width. Fusing the intersection with the weighted
// sum and the count saves the hot search loops further passes over the
// words (the exact search's rub bound is a tub-weighted sum over every
// freshly intersected tidset, and its qub bound needs the support).
func IntersectIntoSum(dst, a, b *Set, w []float64) (sum float64, n int) {
	a.mustMatch(b)
	a.mustMatch(dst)
	return intersectSumWords(dst.words, a.words, b.words, w)
}

// WeightedSum returns Σ_{i ∈ s} w[i], accumulated in ascending bit
// order — one addition per set bit, same association under both kernel
// builds, so the float result is bit-identical by contract. w must
// cover the set width. It is the kernel behind the cover state's
// tub-weighted sums (core.State.SumTub).
func WeightedSum(s *Set, w []float64) float64 {
	return weightedSumWords(s.words, w)
}

// addWeighted folds w[base+j] into total for every set bit j of word,
// in ascending bit order, one addition at a time. Shared by both kernel
// builds so the accumulation association is identical by construction.
func addWeighted(total float64, word uint64, w []float64, base int) float64 {
	for word != 0 {
		total += w[base+bits.TrailingZeros64(word)]
		word &= word - 1
	}
	return total
}

// AndCount returns |a ∩ b| in one fused pass: no temporary set, one
// popcount per word. It is the kernel behind the columnar cover state's
// "items that become covered" count.
func AndCount(a, b *Set) int {
	a.mustMatch(b)
	return andCountWords(a.words, b.words)
}

// AndNotCount returns |a \ b| in one fused pass.
func AndNotCount(a, b *Set) int {
	a.mustMatch(b)
	return andNotCountWords(a.words, b.words)
}

// CoverCounts returns, in one fused pass over the four streams, the two
// counts one consequent item contributes to a rule direction's gain:
// covered = |tids ∩ ucol| (transactions where the item is still
// uncovered and becomes covered) and errors = |tids \ (col ∪ ecol)|
// (transactions that neither contain the item nor already carry it as
// an error, where it becomes one). It is the kernel behind every gain
// evaluation of the columnar cover state. Note ^(col|ecol) sets the dead
// bits past the width, but tids' trailing word keeps them zero (the
// package-wide invariant), so the conjunction masks them back out.
func CoverCounts(tids, ucol, col, ecol *Set) (covered, errors int) {
	tids.mustMatch(ucol)
	tids.mustMatch(col)
	tids.mustMatch(ecol)
	return coverCountsWords(tids.words, ucol.words, col.words, ecol.words)
}

// Equal reports whether s and o contain exactly the same bits. It
// early-exits on the first differing stripe.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	return equalWords(s.words, o.words)
}

// SubsetOf reports whether every bit of s is also set in o. It
// early-exits on the first violating stripe.
func (s *Set) SubsetOf(o *Set) bool {
	s.mustMatch(o)
	return subsetWords(s.words, o.words)
}

// Intersects reports whether s and o share at least one bit. It
// early-exits on the first intersecting stripe.
func (s *Set) Intersects(o *Set) bool {
	s.mustMatch(o)
	return intersectsWords(s.words, o.words)
}

// ContainsAll reports whether every index in idx is set, exiting on the
// first missing one. idx must be within range; it does not need to be
// sorted, but sorted slices (itemsets are kept sorted) probe each
// 64-bit word once instead of once per index.
func (s *Set) ContainsAll(idx []int) bool {
	words := s.words
	wi := -1
	var w uint64
	for _, i := range idx {
		s.check(i)
		if j := i / wordBits; j != wi {
			wi, w = j, words[j]
		}
		if w&(1<<uint(i%wordBits)) == 0 {
			return false
		}
	}
	return true
}

// ForEach calls f for every set bit in ascending order. If f returns false,
// iteration stops early.
func (s *Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Indices returns the set bits in ascending order as a fresh slice.
func (s *Set) Indices() []int {
	return s.AppendIndices(make([]int, 0, s.Count()))
}

// AppendIndices appends the set bits to dst in ascending order, for
// callers recycling an id buffer across rows (the serving layer's
// per-row translations).
func (s *Set) AppendIndices(dst []int) []int {
	s.ForEach(func(i int) bool {
		dst = append(dst, i)
		return true
	})
	return dst
}

// String renders the set as {i1 i2 ...} for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

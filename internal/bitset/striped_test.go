package bitset

// Width-boundary property tests for the kernel layer: every exported
// kernel must agree with a bit-level reference implementation (written
// here with per-bit probes, independent of both word cores) on every
// boundary the striped cores care about — the empty set, single-word
// widths, the 64-bit word boundaries, the stripe boundary (stripeWords
// words) ± 1 word, and random large widths. The same tests run under
// the default striped build and under `-tags bitset_scalar`, which is
// what pins the two builds to each other: each one separately equals
// the bit-level reference, including the trailing-word masking of the
// `&^`-style kernels and the exact float accumulation order of
// IntersectIntoSum / WeightedSum.

import (
	"math/rand"
	"testing"
)

// boundaryWidths are the bit widths every kernel property is checked
// at: 0, 1, the word boundary ±1, the stripe boundary ±1 (in words and
// in bits), both width gates of the striped build ±1 (so the scalar
// fallthrough and the striped path are each exercised on both sides of
// their crossover), and a couple of larger random-ish widths.
func boundaryWidths() []int {
	stripeBits := stripeWords * wordBits
	minBits := stripeMinWords * wordBits
	minSumBits := stripeMinSumWords * wordBits
	widths := []int{
		0, 1, 63, 64, 65, 255, 256, 257,
		stripeBits - 1, stripeBits, stripeBits + 1,
		(stripeWords-1)*wordBits + 1, // one word short of a stripe, partial
		(stripeWords+1)*wordBits - 1, // one word past a stripe, partial
		2*stripeBits + 7,
		minBits - 1, minBits, minBits + 1, minBits + 7,
		minSumBits - 1, minSumBits, minSumBits + 1,
		1000, 4096, 4099,
		minBits + 3*stripeBits + 5, // deep in the striped path, partial tail
	}
	// Dedup while preserving order; stripe widths may collide with the
	// fixed entries (with stripeWords=4, stripeBits=256 already listed).
	seen := map[int]bool{}
	out := widths[:0]
	for _, n := range widths {
		if n >= 0 && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// densities cover empty, sparse, dense and full sets; full sets are the
// trailing-word masking stress (every dead bit of b and c would leak
// into the `a &^ b &^ c` style kernels if the invariant broke).
var densities = []float64{0, 0.05, 0.5, 1}

func fillRandom(r *rand.Rand, s *Set, density float64) {
	for i := 0; i < s.Len(); i++ {
		if density == 1 || r.Float64() < density {
			s.Add(i)
		}
	}
}

// Bit-level references: one probe per bit position, no word walks.

func refAndCount(a, b *Set) int {
	c := 0
	for i := 0; i < a.Len(); i++ {
		if a.Contains(i) && b.Contains(i) {
			c++
		}
	}
	return c
}

func refAndNotCount(a, b *Set) int {
	c := 0
	for i := 0; i < a.Len(); i++ {
		if a.Contains(i) && !b.Contains(i) {
			c++
		}
	}
	return c
}

// refCoverCounts probes the two gain counts bit by bit: covered where
// t and u meet, an error where t holds neither c nor e.
func refCoverCounts(t, u, c, e *Set) (covered, errs int) {
	for i := 0; i < t.Len(); i++ {
		if !t.Contains(i) {
			continue
		}
		if u.Contains(i) {
			covered++
		}
		if !c.Contains(i) && !e.Contains(i) {
			errs++
		}
	}
	return covered, errs
}

// refWeightedSum accumulates exactly like the contract demands: one
// addition per set bit, ascending order.
func refWeightedSum(s *Set, w []float64) float64 {
	total := 0.0
	for i := 0; i < s.Len(); i++ {
		if s.Contains(i) {
			total += w[i]
		}
	}
	return total
}

func TestKernelsMatchBitReference(t *testing.T) {
	t.Logf("kernel build: scalar=%v stripeWords=%d", scalarKernels, stripeWords)
	r := rand.New(rand.NewSource(42))
	for _, n := range boundaryWidths() {
		for _, da := range densities {
			for _, db := range densities {
				a, b, c, e := New(n), New(n), New(n), New(n)
				fillRandom(r, a, da)
				fillRandom(r, b, db)
				fillRandom(r, c, (da+db)/2)
				fillRandom(r, e, 1-db)
				w := make([]float64, n)
				for i := range w {
					// Deliberately non-associative-friendly magnitudes so an
					// accumulation-order change actually shows up.
					w[i] = r.Float64() * float64(uint64(1)<<uint(i%40))
				}

				if got, want := AndCount(a, b), refAndCount(a, b); got != want {
					t.Fatalf("n=%d da=%v db=%v: AndCount = %d, want %d", n, da, db, got, want)
				}
				if got, want := AndNotCount(a, b), refAndNotCount(a, b); got != want {
					t.Fatalf("n=%d da=%v db=%v: AndNotCount = %d, want %d", n, da, db, got, want)
				}
				gotCov, gotErr := CoverCounts(a, b, c, e)
				if wantCov, wantErr := refCoverCounts(a, b, c, e); gotCov != wantCov || gotErr != wantErr {
					t.Fatalf("n=%d da=%v db=%v: CoverCounts = (%d, %d), want (%d, %d)",
						n, da, db, gotCov, gotErr, wantCov, wantErr)
				}
				if got, want := a.Count(), refAndCount(a, a); got != want {
					t.Fatalf("n=%d da=%v: Count = %d, want %d", n, da, got, want)
				}

				// IntersectInto and the fused sum agree with the reference
				// and with each other, bit for bit on the float.
				dst := New(n)
				cnt := IntersectInto(dst, a, b)
				for i := 0; i < n; i++ {
					if dst.Contains(i) != (a.Contains(i) && b.Contains(i)) {
						t.Fatalf("n=%d: IntersectInto wrong at bit %d", n, i)
					}
				}
				if want := refAndCount(a, b); cnt != want {
					t.Fatalf("n=%d: IntersectInto returned %d, want |a ∩ b| = %d", n, cnt, want)
				}
				dst2 := New(n)
				sum, cnt2 := IntersectIntoSum(dst2, a, b, w)
				if !dst2.Equal(dst) {
					t.Fatalf("n=%d: IntersectIntoSum set differs from IntersectInto", n)
				}
				if cnt2 != cnt {
					t.Fatalf("n=%d: IntersectIntoSum returned %d, want %d", n, cnt2, cnt)
				}
				if want := refWeightedSum(dst, w); sum != want {
					t.Fatalf("n=%d: IntersectIntoSum = %v, want %v (bit-exact)", n, sum, want)
				}
				if got, want := WeightedSum(a, w), refWeightedSum(a, w); got != want {
					t.Fatalf("n=%d: WeightedSum = %v, want %v (bit-exact)", n, got, want)
				}

				// In-place word ops against per-bit expectations.
				checkOp := func(name string, op func(x, y *Set), want func(x, y bool) bool) {
					x := a.Clone()
					op(x, b)
					for i := 0; i < n; i++ {
						if x.Contains(i) != want(a.Contains(i), b.Contains(i)) {
							t.Fatalf("n=%d: %s wrong at bit %d", n, name, i)
						}
					}
				}
				checkOp("And", func(x, y *Set) { x.And(y) }, func(p, q bool) bool { return p && q })
				checkOp("Or", func(x, y *Set) { x.Or(y) }, func(p, q bool) bool { return p || q })
				checkOp("AndNot", func(x, y *Set) { x.AndNot(y) }, func(p, q bool) bool { return p && !q })
				checkOp("Xor", func(x, y *Set) { x.Xor(y) }, func(p, q bool) bool { return p != q })

				// Predicates.
				if got, want := a.Intersects(b), refAndCount(a, b) > 0; got != want {
					t.Fatalf("n=%d: Intersects = %v, want %v", n, got, want)
				}
				if got, want := a.SubsetOf(b), refAndNotCount(a, b) == 0; got != want {
					t.Fatalf("n=%d: SubsetOf = %v, want %v", n, got, want)
				}
				if got, want := a.Equal(b), refAndNotCount(a, b) == 0 && refAndNotCount(b, a) == 0; got != want {
					t.Fatalf("n=%d: Equal = %v, want %v", n, got, want)
				}
				if !a.Equal(a.Clone()) {
					t.Fatalf("n=%d: Equal(clone) = false", n)
				}
				if !a.ContainsAll(a.Indices()) {
					t.Fatalf("n=%d: ContainsAll(own indices) = false", n)
				}
				if n > 0 && da > 0 && !a.Empty() {
					// Flip one present bit off b-clone-of-a: ContainsAll must
					// early-exit false.
					missing := a.Indices()[0]
					x := a.Clone()
					x.Remove(missing)
					if x.ContainsAll(a.Indices()) {
						t.Fatalf("n=%d: ContainsAll missed a removed bit", n)
					}
				}
			}
		}
	}
}

// TestKernelsTrailingWordMasking plants garbage-free full sets right at
// partial trailing words: with every bit of a, b set in [0, n), the
// `&^`-style kernels see ^b words whose dead bits (≥ n) are all 1; the
// counts must still ignore them.
func TestKernelsTrailingWordMasking(t *testing.T) {
	for _, n := range boundaryWidths() {
		a, b, c := New(n), New(n), New(n)
		a.Fill()
		// b, c empty: a &^ b &^ c must count exactly n, not the dead bits.
		if got := AndNotCount(a, b); got != n {
			t.Fatalf("n=%d: AndNotCount(full, empty) = %d, want %d", n, got, n)
		}
		if cov, errs := CoverCounts(a, b, b, c); cov != 0 || errs != n {
			t.Fatalf("n=%d: CoverCounts(full, empty, empty, empty) = (%d, %d), want (0, %d)", n, cov, errs, n)
		}
		// A full tidset whose dead bits would meet ^(col | ecol): the
		// errors must stop at the width, and so must the covered count
		// against a full U column.
		if cov, errs := CoverCounts(a, a, b, c); cov != n || errs != n {
			t.Fatalf("n=%d: CoverCounts(full, full, empty, empty) = (%d, %d), want (%d, %d)", n, cov, errs, n, n)
		}
		if got := IntersectInto(New(n), a, a); got != n {
			t.Fatalf("n=%d: IntersectInto(full, full) = %d, want %d", n, got, n)
		}
		b.Fill()
		if got := AndNotCount(a, b); got != 0 {
			t.Fatalf("n=%d: AndNotCount(full, full) = %d, want 0", n, got)
		}
		if !a.SubsetOf(b) || !a.Equal(b) {
			t.Fatalf("n=%d: full sets must be equal subsets", n)
		}
		if n > 0 && !a.Intersects(b) {
			t.Fatalf("n=%d: full sets must intersect", n)
		}
		if n == 0 && a.Intersects(b) {
			t.Fatal("width-0 sets cannot intersect")
		}
	}
}

// TestFreeListClasses pins the inline hot class and the map fallback:
// recycling through one width never allocates a map, and a second width
// falls back without disturbing the first.
func TestFreeListClasses(t *testing.T) {
	var f FreeList
	a := f.Get(100)
	b := f.Get(100)
	f.Put(a)
	f.Put(b)
	if f.Len() != 2 {
		t.Fatalf("Len = %d after two Puts, want 2", f.Len())
	}
	if f.classes != nil {
		t.Fatal("single-width recycling must not allocate the class map")
	}
	got := f.Get(100)
	if got != b && got != a {
		t.Fatal("Get did not recycle a hot-class set")
	}
	if got.Len() != 100 {
		t.Fatalf("recycled width = %d, want 100", got.Len())
	}

	// A different word capacity lands in the map, and both classes keep
	// recycling independently.
	wide := f.Get(1000)
	f.Put(wide)
	if f.Len() != 2 {
		t.Fatalf("Len = %d with two classes, want 2", f.Len())
	}
	if w := f.Get(1000); w != wide {
		t.Fatal("map-class set was not recycled")
	}
	if s := f.Get(100); s == nil || s.Len() != 100 {
		t.Fatal("hot class disturbed by map fallback")
	}

	// Same word capacity, different bit width: recycles and re-widths.
	f.Put(f.Get(97))
	if s := f.Get(99); s.Len() != 99 {
		t.Fatalf("re-width within a class: Len = %d, want 99", s.Len())
	}
}

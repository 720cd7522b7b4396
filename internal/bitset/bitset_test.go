package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	if !s.Empty() || s.Count() != 0 {
		t.Fatalf("new set not empty: count=%d", s.Count())
	}
}

func TestNewZeroWidth(t *testing.T) {
	s := New(0)
	if !s.Empty() || s.Count() != 0 || s.Len() != 0 {
		t.Fatal("zero-width set should be empty")
	}
	s.Fill()
	if s.Count() != 0 {
		t.Fatal("Fill on zero-width set must stay empty")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("bit %d set before Add", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("bit %d not set after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 7 {
		t.Fatalf("Remove(64) failed: count=%d", s.Count())
	}
	// Removing an absent bit is a no-op.
	s.Remove(64)
	if s.Count() != 7 {
		t.Fatal("double Remove changed count")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(64)
	for _, f := range []func(){
		func() { s.Add(64) },
		func() { s.Add(-1) },
		func() { s.Contains(64) },
		func() { s.Remove(100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestReset(t *testing.T) {
	s := New(100)
	s.Add(3)
	s.Add(99)
	words := s.Words()

	// Shrinking and re-growing within capacity must reuse storage and
	// clear every bit.
	s.Reset(64)
	if s.Len() != 64 || !s.Empty() {
		t.Fatalf("Reset(64): len=%d empty=%v", s.Len(), s.Empty())
	}
	s.Reset(100)
	if s.Len() != 100 || !s.Empty() {
		t.Fatalf("Reset(100): len=%d empty=%v", s.Len(), s.Empty())
	}
	if &s.Words()[0] != &words[0] {
		t.Fatal("Reset within capacity reallocated")
	}

	// Growing past capacity allocates but still yields an empty set.
	s.Add(42)
	s.Reset(1000)
	if s.Len() != 1000 || !s.Empty() {
		t.Fatalf("Reset(1000): len=%d empty=%v", s.Len(), s.Empty())
	}
	s.Add(999)
	if !s.Contains(999) {
		t.Fatal("grown set unusable")
	}
}

func TestFreeList(t *testing.T) {
	var f FreeList
	a := f.Get(100)
	if a.Len() != 100 || !a.Empty() {
		t.Fatalf("fresh Get: len=%d empty=%v", a.Len(), a.Empty())
	}
	a.Add(7)
	f.Put(a)
	if f.Len() != 1 {
		t.Fatalf("free list holds %d, want 1", f.Len())
	}
	// Same size class: recycled, contents unspecified (may be dirty).
	b := f.Get(100)
	if b != a {
		t.Fatal("matching class was not recycled")
	}
	if f.Len() != 0 {
		t.Fatal("recycled set still on the list")
	}
	// A different word-count class misses and allocates fresh.
	f.Put(b)
	c := f.Get(1000)
	if c == b || c.Len() != 1000 {
		t.Fatal("class mismatch must allocate")
	}
	// Same word count, different bit width: recycled with the new width.
	e := f.Get(90) // 90 and 100 bits are both two words
	if e != b || e.Len() != 90 {
		t.Fatalf("width-compatible class not recycled (len=%d)", e.Len())
	}
	f.Put(nil) // must not panic
}

func TestNewBatch(t *testing.T) {
	batch := NewBatch(5, 70)
	if len(batch) != 5 {
		t.Fatalf("batch size %d", len(batch))
	}
	for i := range batch {
		if batch[i].Len() != 70 || !batch[i].Empty() {
			t.Fatalf("batch[%d]: len=%d empty=%v", i, batch[i].Len(), batch[i].Empty())
		}
	}
	// Sets must be independent despite the shared backing.
	batch[1].Fill()
	batch[2].Add(69)
	if !batch[0].Empty() || !batch[3].Empty() {
		t.Fatal("batch sets alias each other")
	}
	if batch[1].Count() != 70 || batch[2].Count() != 1 {
		t.Fatalf("batch contents wrong: %d, %d", batch[1].Count(), batch[2].Count())
	}
	// The word slices are capacity-capped so one set cannot grow into
	// its neighbor's words.
	if cap(batch[0].Words()) != len(batch[0].Words()) {
		t.Fatal("batch words not capacity-capped")
	}
	if out := NewBatch(0, 10); len(out) != 0 {
		t.Fatal("empty batch")
	}
}

func TestFillTrim(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Fatalf("Fill(%d): count=%d", n, s.Count())
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromIndices(200, []int{1, 5, 70, 150})
	b := FromIndices(200, []int{5, 70, 199})

	and := a.Clone()
	and.And(b)
	if got := and.Indices(); !equalInts(got, []int{5, 70}) {
		t.Fatalf("And = %v", got)
	}
	or := a.Clone()
	or.Or(b)
	if got := or.Indices(); !equalInts(got, []int{1, 5, 70, 150, 199}) {
		t.Fatalf("Or = %v", got)
	}
	diff := a.Clone()
	diff.AndNot(b)
	if got := diff.Indices(); !equalInts(got, []int{1, 150}) {
		t.Fatalf("AndNot = %v", got)
	}
	xor := a.Clone()
	xor.Xor(b)
	if got := xor.Indices(); !equalInts(got, []int{1, 150, 199}) {
		t.Fatalf("Xor = %v", got)
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched widths did not panic")
		}
	}()
	a.And(b)
}

func TestIntersectInto(t *testing.T) {
	a := FromIndices(100, []int{1, 2, 3, 80})
	b := FromIndices(100, []int{2, 3, 99})
	dst := New(100)
	dst.Add(50) // stale content must be overwritten
	IntersectInto(dst, a, b)
	if got := dst.Indices(); !equalInts(got, []int{2, 3}) {
		t.Fatalf("IntersectInto = %v", got)
	}
	if AndCount(a, b) != 2 {
		t.Fatalf("AndCount = %d, want 2", AndCount(a, b))
	}
	// Aliasing dst with an operand is allowed.
	IntersectInto(a, a, b)
	if got := a.Indices(); !equalInts(got, []int{2, 3}) {
		t.Fatalf("aliased IntersectInto = %v", got)
	}
}

func TestSubsetEqualIntersects(t *testing.T) {
	a := FromIndices(70, []int{0, 65})
	b := FromIndices(70, []int{0, 3, 65})
	if !a.SubsetOf(b) {
		t.Fatal("a should be a subset of b")
	}
	if b.SubsetOf(a) {
		t.Fatal("b should not be a subset of a")
	}
	if !a.SubsetOf(a) || !a.Equal(a.Clone()) {
		t.Fatal("reflexivity failed")
	}
	if a.Equal(b) {
		t.Fatal("a != b expected")
	}
	if !a.Intersects(b) {
		t.Fatal("a intersects b expected")
	}
	c := FromIndices(70, []int{1, 2})
	if a.Intersects(c) {
		t.Fatal("a and c are disjoint")
	}
	if !New(70).SubsetOf(a) {
		t.Fatal("empty set is subset of everything")
	}
	// Sets of different widths are never Equal.
	if New(70).Equal(New(71)) {
		t.Fatal("different widths must not be Equal")
	}
}

func TestForEachOrderAndStop(t *testing.T) {
	s := FromIndices(300, []int{5, 64, 128, 255, 299})
	var got []int
	s.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	if !equalInts(got, []int{5, 64, 128, 255, 299}) {
		t.Fatalf("ForEach order = %v", got)
	}
	var first []int
	s.ForEach(func(i int) bool {
		first = append(first, i)
		return len(first) < 2
	})
	if !equalInts(first, []int{5, 64}) {
		t.Fatalf("early stop = %v", first)
	}
}

func TestContainsAll(t *testing.T) {
	s := FromIndices(100, []int{3, 10, 64})
	if !s.ContainsAll([]int{10, 3}) {
		t.Fatal("ContainsAll subset failed")
	}
	if s.ContainsAll([]int{3, 11}) {
		t.Fatal("ContainsAll should reject missing bit")
	}
	if !s.ContainsAll(nil) {
		t.Fatal("ContainsAll(nil) should be true")
	}
}

func TestCopyClearClone(t *testing.T) {
	a := FromIndices(80, []int{1, 79})
	b := New(80)
	b.Copy(a)
	if !a.Equal(b) {
		t.Fatal("Copy failed")
	}
	c := a.Clone()
	a.Clear()
	if !a.Empty() {
		t.Fatal("Clear failed")
	}
	if c.Count() != 2 {
		t.Fatal("Clone must be independent of the original")
	}
}

func TestString(t *testing.T) {
	if got := FromIndices(10, []int{1, 3}).String(); got != "{1 3}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// --- property-based tests against a map-based reference implementation ---

type refSet map[int]bool

func randomPair(r *rand.Rand, n int) (*Set, refSet) {
	s, ref := New(n), refSet{}
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			s.Add(i)
			ref[i] = true
		}
	}
	return s, ref
}

func refIndices(ref refSet) []int {
	out := make([]int, 0, len(ref))
	for i := range ref {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func TestQuickAlgebraMatchesReference(t *testing.T) {
	f := func(seed int64, width uint16) bool {
		n := int(width%257) + 1
		r := rand.New(rand.NewSource(seed))
		a, ra := randomPair(r, n)
		b, rb := randomPair(r, n)

		and := a.Clone()
		and.And(b)
		or := a.Clone()
		or.Or(b)
		diff := a.Clone()
		diff.AndNot(b)
		xor := a.Clone()
		xor.Xor(b)

		wantAnd, wantOr, wantDiff, wantXor := refSet{}, refSet{}, refSet{}, refSet{}
		for i := 0; i < n; i++ {
			if ra[i] && rb[i] {
				wantAnd[i] = true
			}
			if ra[i] || rb[i] {
				wantOr[i] = true
			}
			if ra[i] && !rb[i] {
				wantDiff[i] = true
			}
			if ra[i] != rb[i] {
				wantXor[i] = true
			}
		}
		return equalInts(and.Indices(), refIndices(wantAnd)) &&
			equalInts(or.Indices(), refIndices(wantOr)) &&
			equalInts(diff.Indices(), refIndices(wantDiff)) &&
			equalInts(xor.Indices(), refIndices(wantXor)) &&
			and.Count() == len(wantAnd) &&
			AndCount(a, b) == len(wantAnd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubsetDefinition(t *testing.T) {
	f := func(seed int64, width uint16) bool {
		n := int(width%200) + 1
		r := rand.New(rand.NewSource(seed))
		a, ra := randomPair(r, n)
		b, rb := randomPair(r, n)
		want := true
		for i := range ra {
			if ra[i] && !rb[i] {
				want = false
			}
		}
		return a.SubsetOf(b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// a \ b == a ∩ (universe \ b): AndNot agrees with And of complement.
	f := func(seed int64, width uint16) bool {
		n := int(width%150) + 1
		r := rand.New(rand.NewSource(seed))
		a, _ := randomPair(r, n)
		b, _ := randomPair(r, n)
		left := a.Clone()
		left.AndNot(b)
		comp := New(n)
		comp.Fill()
		comp.AndNot(b)
		right := a.Clone()
		right.And(comp)
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
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

// --- fused popcount kernels (AndCount, AndNotCount, CoverCounts) ---

// The kernels must agree with the naive bit-probe definitions for random
// sets of random widths (crossing word boundaries both ways).
func TestQuickFusedCountKernels(t *testing.T) {
	f := func(seed int64, width uint16) bool {
		n := int(width%300) + 1
		r := rand.New(rand.NewSource(seed))
		a, _ := randomPair(r, n)
		b, _ := randomPair(r, n)
		c, _ := randomPair(r, n)
		e, _ := randomPair(r, n)
		and, andNot, newErrs := 0, 0, 0
		for i := 0; i < n; i++ {
			switch {
			case a.Contains(i) && b.Contains(i):
				and++
			case a.Contains(i) && !b.Contains(i):
				andNot++
			}
			if a.Contains(i) && !c.Contains(i) && !e.Contains(i) {
				newErrs++
			}
		}
		cov, errs := CoverCounts(a, b, c, e)
		return AndCount(a, b) == and &&
			AndNotCount(a, b) == andNot &&
			cov == and && errs == newErrs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The complement of an operand must not leak bits beyond the width: the
// dead bits of ^b and ^c in the trailing word are masked out by a's
// invariant-zero dead bits.
func TestFusedCountsTrailingWordMasking(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 70, 127, 128, 129} {
		full := New(n)
		full.Fill()
		empty := New(n)
		if got := AndNotCount(full, empty); got != n {
			t.Fatalf("width %d: AndNotCount(full, empty) = %d, want %d", n, got, n)
		}
		if cov, errs := CoverCounts(full, empty, empty, empty); cov != 0 || errs != n {
			t.Fatalf("width %d: CoverCounts(full, empty, empty, empty) = (%d, %d), want (0, %d)", n, cov, errs, n)
		}
		if got := AndCount(full, full); got != n {
			t.Fatalf("width %d: AndCount(full, full) = %d, want %d", n, got, n)
		}
		if _, errs := CoverCounts(full, empty, full, empty); errs != 0 {
			t.Fatalf("width %d: CoverCounts errors with a full column = %d, want 0", n, errs)
		}
		if _, errs := CoverCounts(full, empty, empty, full); errs != 0 {
			t.Fatalf("width %d: CoverCounts errors with a full E column = %d, want 0", n, errs)
		}
	}
}

func TestFusedCountWidthMismatchPanics(t *testing.T) {
	a, b, c := New(10), New(10), New(11)
	for name, fn := range map[string]func(){
		"AndCount":         func() { AndCount(a, c) },
		"AndNotCount":      func() { AndNotCount(a, c) },
		"CoverCounts-ucol": func() { CoverCounts(a, c, b, b) },
		"CoverCounts-col":  func() { CoverCounts(a, b, c, b) },
		"CoverCounts-ecol": func() { CoverCounts(a, b, b, c) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched widths did not panic", name)
				}
			}()
			fn()
		}()
	}
}

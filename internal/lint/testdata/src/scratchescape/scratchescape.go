// Package scratchescape exercises the scratchescape analyzer: values
// borrowed from a sync.Pool or a getScratch wrapper must not outlive
// the borrow window.
package scratchescape

import "sync"

var pool = sync.Pool{New: func() any { return new(buffer) }}

type buffer struct{ words []uint64 }

type holder struct{ scratch *buffer }

var leaked *buffer

// Flagged: returning a pooled borrow.
func Borrow() *buffer {
	b := pool.Get().(*buffer)
	return b // want `must not be returned`
}

// Flagged: storing a borrow into a struct field.
func (h *holder) Attach() {
	b := pool.Get().(*buffer)
	h.scratch = b // want `must not be stored into a field`
	pool.Put(b)
}

// Flagged: storing a borrow into a package variable.
func Leak() {
	b := pool.Get().(*buffer)
	leaked = b // want `package variable`
	pool.Put(b)
}

// Flagged: capturing a borrow in a composite literal.
func Wrap() {
	b := pool.Get().(*buffer)
	h := holder{scratch: b} // want `composite literal`
	_ = h
	pool.Put(b)
}

// Allowed: use confined to the borrow/Put window.
func Sum() int {
	b := pool.Get().(*buffer)
	defer pool.Put(b)
	n := 0
	for _, w := range b.words {
		n += int(w)
	}
	return n
}

// Allowed: the blessed wrapper returns its fresh borrow.
func getScratch() *buffer {
	b := pool.Get().(*buffer)
	return b
}

// Allowed: wrapper borrows are tracked too; the annotation records the
// deliberate ownership transfer.
func Handoff() *buffer {
	b := getScratch()
	//lint:scratchescape-ok fixture: caller assumes the Put obligation
	return b
}

// walker mirrors the ECLAT worker: a per-worker accumulator handed out
// by its rowScratch accessor and overwritten by the next closure.
type walker struct {
	acc []uint64
	out [][]uint64
}

// Allowed: the accessor returns its own buffer.
func (w *walker) rowScratch() []uint64 {
	if w.acc == nil {
		w.acc = make([]uint64, 4)
	}
	return w.acc
}

// Flagged: emitting the accumulator aliases every later closure.
func (w *walker) Emit() []uint64 {
	acc := w.rowScratch()
	return acc // want `must not be returned`
}

// Flagged: storing the accumulator into a result field.
func (h *holder) Keep(w *walker) {
	acc := w.rowScratch()
	h.scratch = &buffer{words: acc} // want `composite literal`
}

// Allowed: reading the accumulator within one closure, copying out.
func (w *walker) Count() int {
	acc := w.rowScratch()
	n := 0
	for _, x := range acc {
		if x != 0 {
			n++
		}
	}
	w.out = append(w.out, append([]uint64(nil), acc...))
	return n
}

// Package eclat mines frequent and closed frequent itemsets over the
// joined alphabet of a two-view dataset using depth-first tidset
// intersection (the ECLAT algorithm of Zaki et al.), with a
// prefix-preserving closure extension for closed itemsets. It provides the
// candidate sets used by TRANSLATOR-SELECT and TRANSLATOR-GREEDY: closed
// frequent *two-view* itemsets, i.e. itemsets with items from both views
// (§5.3 of the paper).
//
// The walk parallelizes over the top-level branches of the search tree
// (one branch per frequent item, in the global search order) on the
// internal/pool worker pool: within one call the columns, search order
// and closure structures are read-only, every worker collects its own
// output slice, and the final support-descending sort is a total order,
// so the mined set is bit-identical for every worker count. The
// MaxResults overflow guard counts emissions through a shared
// pool.Counter; it trips in every schedule iff the total number of
// results exceeds the cap, so success/failure is deterministic too.
//
// The walk is allocation-free in steady state: each worker recycles the
// tidsets of non-emitted nodes through a bitset.FreeList and builds
// candidate itemsets in per-depth scratch buffers, so the only
// allocations that survive warm-up are the emitted results themselves
// (and no tidsets under DropTids). Emitted tidsets and itemsets are
// caller-owned and never recycled. While the walk runs, each worker
// keeps its results compact (see emitted): a walk that trips MaxResults
// is thrown away, so the less it holds, the lower the peak memory of
// MineCandidatesCapped's doubling.
//
// The closure of a node is occurrence-based, as in LCM (Uno, Kiyomi,
// Arimura, "LCM ver. 2", FIMI'04): instead of testing every column for
// containing the node's tidset, the walk intersects the joined rows of
// the tidset's transactions in a per-worker accumulator, over a
// row-major copy of the data built once per Mine call. The intersection
// stops as soon as the accumulator has shrunk to the node's own
// itemset, which on wide data is usually a handful of rows in; only the
// few items that survive a full intersection go through the
// prefix-preserving test.
package eclat

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/pool"
)

// FI is a mined frequent itemset over the joined alphabet: left items keep
// their ids, right items are offset by |I_L|.
type FI struct {
	Items itemset.Itemset // joined ids, canonical
	Supp  int             // |supp(Items)| over the joined data
	Tids  *bitset.Set     // supporting transactions (nil under DropTids)
}

// Split separates a joined itemset into its left and right parts, undoing
// the offset.
func Split(joined itemset.Itemset, nLeft int) (x, y itemset.Itemset) {
	for _, i := range joined {
		if i < nLeft {
			x = append(x, i)
		} else {
			y = append(y, i-nLeft)
		}
	}
	return x, y
}

// SplitInPlace is Split without the allocations: x aliases the left half
// of joined (capacity-capped) and y its right half with the offset
// removed by mutating joined. The caller must own joined and not use it
// afterwards.
func SplitInPlace(joined itemset.Itemset, nLeft int) (x, y itemset.Itemset) {
	split := sort.SearchInts(joined, nLeft)
	x, y = joined[:split:split], joined[split:]
	for k := range y {
		y[k] -= nLeft
	}
	return x, y
}

// Options configures mining.
type Options struct {
	// MinSupport is the minimal absolute support; values < 1 are
	// treated as 1 (every itemset must occur).
	MinSupport int
	// Closed restricts output to closed itemsets (no superset with the
	// same support).
	Closed bool
	// TwoView keeps only itemsets with at least one item in each view.
	TwoView bool
	// MaxItems bounds the itemset size; 0 means unbounded.
	MaxItems int
	// MaxResults aborts mining with an error when exceeded; it protects
	// against accidental pattern explosions. 0 means unbounded.
	MaxResults int
	// DropTids omits the supporting tidsets from the results (FI.Tids
	// is nil). Callers that only need the itemsets and supports — the
	// candidate mine derives per-view tidsets separately — should set
	// it: every walk tidset then recycles through the free-list and the
	// mine allocates almost nothing beyond the output itself.
	DropTids bool
	// Workers sets the worker-pool size for the tidset-intersection
	// walk: 0 means GOMAXPROCS, 1 disables parallelism. The mined set
	// is identical for any value.
	Workers int
	// Runtime is the persistent worker runtime to run the walk on; nil
	// means the shared pool.Default runtime.
	Runtime *pool.Runtime
}

// walk is everything the depth-first search reads but never writes: it is
// shared by all workers of one Mine call.
type walk struct {
	d       *dataset.Dataset
	ctx     context.Context
	opt     Options
	nLeft   int
	cols    []*bitset.Set
	order   []int         // frequent items in search order
	rank    []int32       // joined item -> position in order (frequent items)
	rows    []uint64      // joined rows, row-major, stride words per row
	stride  int           // ⌈(nLeft+nRight)/64⌉
	emitted *pool.Counter // MaxResults accounting across workers
}

// ctxProbeMask gates the in-branch cancellation probe: one ctx.Err()
// call per 1024 visited nodes, so a single huge top-level branch still
// observes cancellation promptly while the steady-state walk pays one
// counter increment and mask per node.
const ctxProbeMask = 1<<10 - 1

// Mine returns the (closed) frequent itemsets of the joined views of d
// under the given options, sorted by decreasing support with a
// deterministic tie-break.
//
// Cancelling ctx aborts the walk between branches (and, within a
// branch, at the next node probe) and returns ctx.Err(); the partial
// output is discarded. With an uncancelled context the mined set is
// bit-identical for every worker count, exactly as before.
func Mine(ctx context.Context, d *dataset.Dataset, opt Options) ([]FI, error) {
	if opt.MinSupport < 1 {
		opt.MinSupport = 1
	}
	nL := d.Items(dataset.Left)
	m := nL + d.Items(dataset.Right)

	cols := make([]*bitset.Set, m)
	for i, c := range d.Columns(dataset.Left) {
		cols[i] = c
	}
	for i, c := range d.Columns(dataset.Right) {
		cols[nL+i] = c
	}

	// Frequent single items, in ascending support order: extending by
	// rarer items first keeps tidsets small early (standard ECLAT
	// heuristic) while remaining deterministic.
	var freq []int
	for i := 0; i < m; i++ {
		if cols[i].Count() >= opt.MinSupport {
			freq = append(freq, i)
		}
	}
	sort.Slice(freq, func(a, b int) bool {
		ca, cb := cols[freq[a]].Count(), cols[freq[b]].Count()
		if ca != cb {
			return ca < cb
		}
		return freq[a] < freq[b]
	})
	w := &walk{d: d, ctx: ctx, opt: opt, nLeft: nL, cols: cols, order: freq,
		emitted: new(pool.Counter)}
	if opt.Closed {
		w.indexRows(m)
	}

	all := bitset.New(d.Size())
	all.Fill()

	// One task per top-level branch, dynamically scheduled (branch sizes
	// are heavily skewed toward the rare early items); each worker
	// appends to its own miner.out and recycles through its own
	// free-list.
	workers := pool.Size(opt.Workers, len(w.order))
	p := pool.NewOn(opt.Runtime, workers, func(int) *miner { return &miner{walk: w} })
	err := p.RunErrCtx(ctx, len(w.order), func(mi *miner, k int) error {
		return mi.branch(nil, all, k, 0)
	})
	if err != nil {
		return nil, err
	}

	total, items := 0, 0
	for _, mi := range p.States() {
		total += len(mi.out.recs)
		items += mi.out.items
	}
	out := make([]FI, 0, total)
	store := make([]int, items) // backs every emitted itemset
	for _, mi := range p.States() {
		out, store = mi.out.expand(out, store)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Supp != out[b].Supp {
			return out[a].Supp > out[b].Supp
		}
		return itemset.Compare(out[a].Items, out[b].Items) < 0
	})
	return out, nil
}

// indexRows builds the closure's structures: every transaction as one
// row of stride words over the joined alphabet (left items, then right
// items at offset nLeft), and the search-order rank of every item.
func (w *walk) indexRows(m int) {
	w.stride = (m + 63) / 64
	w.rows = make([]uint64, w.d.Size()*w.stride)
	for t := 0; t < w.d.Size(); t++ {
		row := w.rows[t*w.stride : (t+1)*w.stride]
		w.d.Row(dataset.Left, t).ForEach(func(i int) bool {
			row[i>>6] |= 1 << (i & 63)
			return true
		})
		w.d.Row(dataset.Right, t).ForEach(func(i int) bool {
			i += w.nLeft
			row[i>>6] |= 1 << (i & 63)
			return true
		})
	}
	w.rank = make([]int32, m)
	for r, it := range w.order {
		w.rank[it] = int32(r)
	}
}

// miner is one worker's share of the walk: the shared read-only
// structures plus a private output and private recycling scratch (the
// free-list of node tidsets, the per-depth itemset buffers and the
// closure accumulator).
type miner struct {
	*walk
	out emitted

	free  bitset.FreeList   // tidsets of non-emitted nodes, recycled
	sets  []itemset.Itemset // per-depth candidate/closure scratch
	acc   []uint64          // closure's row-intersection accumulator
	ticks uint              // node counter driving the periodic ctx probe
}

// emitted is one worker's output while the walk runs: the items of all
// emitted itemsets as int32s, back to back in chunks of emitChunk, and
// one 16-byte record per itemset. That is about a third of the memory
// of FIs with their own item slices. Mine expands the records into FIs
// once the walk has succeeded.
type emitted struct {
	chunks [][]int32
	recs   []emitRec
	tids   []*bitset.Set // per record, unless DropTids
	items  int           // total items over recs
}

// emitRec locates one emitted itemset in its worker's chunks.
type emitRec struct {
	chunk, off, n, supp int32
}

// emitChunk is the number of items per chunk of emitted.
const emitChunk = 4096

// add records a copy of s with its support and, unless nil, its tidset.
func (e *emitted) add(s itemset.Itemset, supp int, tids *bitset.Set) {
	last := len(e.chunks) - 1
	if last < 0 || len(s) > cap(e.chunks[last])-len(e.chunks[last]) {
		e.chunks = append(e.chunks, make([]int32, 0, max(emitChunk, len(s))))
		last++
	}
	c := e.chunks[last]
	e.recs = append(e.recs, emitRec{chunk: int32(last), off: int32(len(c)), n: int32(len(s)), supp: int32(supp)})
	for _, it := range s {
		c = append(c, int32(it))
	}
	e.chunks[last] = c
	e.items += len(s)
	if tids != nil {
		e.tids = append(e.tids, tids)
	}
}

// expand appends the recorded itemsets to out as FIs whose items are
// carved, capacity-capped, from the front of store; it returns both
// advanced.
func (e *emitted) expand(out []FI, store []int) ([]FI, []int) {
	for j, r := range e.recs {
		items := store[:r.n:r.n]
		store = store[r.n:]
		for k, it := range e.chunks[r.chunk][r.off : r.off+r.n] {
			items[k] = int(it)
		}
		fi := FI{Items: items, Supp: int(r.supp)}
		if e.tids != nil {
			fi.Tids = e.tids[j]
		}
		out = append(out, fi)
	}
	return out, store
}

// rowScratch returns the worker's closure accumulator (stride words),
// allocating it on first use. Its contents are only meaningful within
// one closure call.
func (m *miner) rowScratch() []uint64 {
	if m.acc == nil {
		m.acc = make([]uint64, m.stride)
	}
	return m.acc
}

// scratch returns the (emptied) itemset buffer of the given depth,
// allocating only when the walk goes deeper than ever before on this
// worker.
func (m *miner) scratch(depth int) itemset.Itemset {
	for len(m.sets) <= depth {
		m.sets = append(m.sets, nil)
	}
	return m.sets[depth][:0]
}

// dfs grows the current itemset (cur, with tidset tids) by items at order
// positions ≥ start. depth is the recursion level, used to select the
// per-depth scratch buffers.
func (m *miner) dfs(cur itemset.Itemset, tids *bitset.Set, start, depth int) error {
	for k := start; k < len(m.order); k++ {
		if err := m.branch(cur, tids, k, depth); err != nil {
			return err
		}
	}
	return nil
}

// branch extends the current itemset (cur, with tidset tids) by the item
// at order position k and recurses into positions > k. For closed mining
// it applies the prefix-preserving closure test: the closure of the
// extension must not contain any item that precedes the generating item
// in the search order, otherwise the branch duplicates an
// already-explored closed set.
//
// Scratch discipline: the extended itemset lives in this depth's scratch
// buffer (siblings at the same depth overwrite it only after the subtree
// below has returned) and the child tidset comes from the worker's
// free-list. Both are cloned, or handed over, only on emission —
// everything else recycles, so the steady-state walk does not allocate.
func (m *miner) branch(cur itemset.Itemset, tids *bitset.Set, k, depth int) error {
	if m.ticks++; m.ticks&ctxProbeMask == 0 {
		if err := m.ctx.Err(); err != nil {
			return err
		}
	}
	it := m.order[k]
	if cur.Contains(it) {
		return nil // already absorbed by a closure on this path
	}
	// The child tidset is fully overwritten by the intersection, so a
	// recycled set needs no clearing.
	child := m.free.Get(m.d.Size())
	supp := bitset.IntersectInto(child, tids, m.cols[it])
	if supp < m.opt.MinSupport {
		m.free.Put(child)
		return nil
	}
	cand := insertSortedInto(m.scratch(depth), cur, it)
	if m.opt.MaxItems > 0 && len(cand) > m.opt.MaxItems {
		m.sets[depth] = cand
		m.free.Put(child)
		return nil
	}
	next := cand
	emit := cand
	if m.opt.Closed {
		closure, ok := m.closure(cand, child, k)
		if !ok {
			// Non-canonical: an item preceding position k closes
			// cand, so this branch (and every extension, whose
			// closure would contain that item too) duplicates an
			// already-explored closed set.
			m.sets[depth] = cand
			m.free.Put(child)
			return nil
		}
		next, emit = closure, closure
		if m.opt.MaxItems > 0 && len(emit) > m.opt.MaxItems {
			emit = nil // closure outgrew the bound; recurse only
		}
	}
	m.sets[depth] = next // remember grown capacity for reuse
	retained := false
	if emit != nil && (!m.opt.TwoView || m.isTwoView(emit)) {
		var tids *bitset.Set
		if !m.opt.DropTids {
			tids, retained = child, true
		}
		m.out.add(emit, supp, tids)
		if m.opt.MaxResults > 0 && int(m.emitted.Add()) > m.opt.MaxResults {
			return fmt.Errorf("eclat: more than %d itemsets; raise MinSupport", m.opt.MaxResults)
		}
	}
	err := m.dfs(next, child, k+1, depth+1)
	if !retained {
		//lint:freelistown-ok retained is set exactly when fi.Tids captured child, so this Put never recycles an emitted tidset
		m.free.Put(child)
	}
	return err
}

// closure extends cur in place with every item whose tidset is a superset
// of tids. ok is false when some such item precedes position k in the
// search order without being in cur (the ppc test). cur must live in the
// caller's scratch buffer; the returned slice is the (possibly regrown)
// same buffer.
//
// The items whose tidset contains tids are exactly the items of every
// row in tids, so the closure intersects those rows in the worker's
// accumulator. Every row holds all of cur, so the accumulator never
// drops below cur: once its popcount equals len(cur) the closure is cur
// itself and the remaining rows are skipped. Otherwise the surviving
// items outside cur all occur at least |tids| ≥ MinSupport times, hence
// have a search-order rank, which decides the ppc test.
func (m *miner) closure(cur itemset.Itemset, tids *bitset.Set, k int) (itemset.Itemset, bool) {
	acc := m.rowScratch()
	for j := range acc {
		acc[j] = ^uint64(0)
	}
	for wi, w := range tids.Words() {
		for ; w != 0; w &= w - 1 {
			t := wi<<6 | bits.TrailingZeros64(w)
			row := m.rows[t*m.stride : (t+1)*m.stride]
			n := 0
			for j, r := range row {
				acc[j] &= r
				n += bits.OnesCount64(acc[j])
			}
			if n == len(cur) {
				return cur, true
			}
		}
	}
	for _, it := range cur {
		acc[it>>6] &^= 1 << (it & 63)
	}
	// Survivors come in ascending item order; each visits its rank once.
	for wi, w := range acc {
		for ; w != 0; w &= w - 1 {
			it := wi<<6 | bits.TrailingZeros64(w)
			if int(m.rank[it]) < k {
				return nil, false
			}
			cur = insertInPlace(cur, it)
		}
	}
	return cur, true
}

func (m *miner) isTwoView(s itemset.Itemset) bool {
	return len(s) >= 2 && s[0] < m.nLeft && s[len(s)-1] >= m.nLeft
}

// insertSortedInto writes s ∪ {x} into dst (which must be empty and must
// not alias s), reusing dst's capacity.
func insertSortedInto(dst, s itemset.Itemset, x int) itemset.Itemset {
	i := sort.SearchInts(s, x)
	dst = append(dst, s[:i]...)
	dst = append(dst, x)
	return append(dst, s[i:]...)
}

// insertInPlace inserts x into the sorted set s, shifting the tail right;
// it allocates only when s must grow beyond its capacity.
func insertInPlace(s itemset.Itemset, x int) itemset.Itemset {
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// Package heapq is the binary min-heap behind the replay's event orders:
// flownet's link, pending-cap, completion-deadline and per-entity member
// heaps, and the simulator's timer queue.
//
// Entries are ordered by (K, ID). Every heap in the replay keys on a
// float64 with a unique integer tie-break, so the order is strict and
// total: the top after any sequence of operations depends only on the
// entries held, not on how the sifts lay them out in the array.
//
// The heap is concrete and generic rather than a container/heap adapter:
// container/heap would box every element through interface{} on Push and
// Pop, one allocation each, which at big-cluster replay scales was a third
// of the replay's allocation volume. Here steady-state Push and Pop reuse
// the backing array and allocate nothing.
//
// A heap may keep a by-ID position index (IndexByID), for heaps that hold
// at most one entry per ID and re-key or remove entries by ID. IDs must
// then be small non-negative integers: the index is a slice indexed by ID.
package heapq

// Entry is one heap element: the key K, the tie-break ID and a payload V.
// The payload comes first so that an empty one (struct{}) adds no padding.
type Entry[V any] struct {
	V  V
	K  float64
	ID int64
}

// minCap is the room the first Append reserves. The replay's per-entity
// member heaps mostly hold a handful of flows; starting at four entries
// spares them the one-, two- and four-entry regrowths.
const minCap = 4

// before reports whether (ka, ia) orders before (kb, ib). It takes the
// fields rather than entries so the sifts keep the moving entry in
// registers.
func before(ka float64, ia int64, kb float64, ib int64) bool {
	if ka != kb {
		return ka < kb
	}
	return ia < ib
}

// Heap is a binary min-heap of entries ordered by (K, ID). The zero value
// is an empty heap without a position index.
type Heap[V any] struct {
	es []Entry[V]
	// pos is the position index, nil unless IndexByID: by ID, the entry's
	// slot, -1 when absent. A pointer keeps unindexed heaps, such as the
	// per-entity member heaps, at one slice header plus a word.
	pos *[]int32
}

// IndexByID turns on the by-ID position index. Call it on an empty heap;
// from then on the heap may hold at most one entry per ID, and Slot finds
// it.
func (h *Heap[V]) IndexByID() { h.pos = new([]int32) }

// Len returns the number of entries.
func (h *Heap[V]) Len() int { return len(h.es) }

// Cap returns the capacity of the backing array.
func (h *Heap[V]) Cap() int { return cap(h.es) }

// At returns a pointer to the entry in slot i; slot 0 is the minimum. The
// entry is read-only: re-key it with Fix.
func (h *Heap[V]) At(i int) *Entry[V] { return &h.es[i] }

// Slot returns the slot of the entry with the given ID, or -1 when the
// heap holds none. The heap must be indexed.
func (h *Heap[V]) Slot(id int64) int {
	if pos := *h.pos; id < int64(len(pos)) {
		return int(pos[id])
	}
	return -1
}

// Push adds an entry.
func (h *Heap[V]) Push(k float64, id int64, v V) {
	h.Append(k, id, v)
	h.up(len(h.es) - 1)
}

// Append adds an entry without restoring the heap order; call Init before
// the next read or ordered operation.
func (h *Heap[V]) Append(k float64, id int64, v V) {
	if cap(h.es) == 0 {
		h.es = make([]Entry[V], 0, minCap)
	}
	h.es = append(h.es, Entry[V]{K: k, ID: id, V: v})
	if h.pos != nil {
		for id >= int64(len(*h.pos)) {
			*h.pos = append(*h.pos, -1)
		}
		(*h.pos)[id] = int32(len(h.es) - 1)
	}
}

// Init establishes the heap order over the current entries in O(n).
func (h *Heap[V]) Init() {
	for i := len(h.es)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Reset empties the heap, keeping its backing array.
func (h *Heap[V]) Reset() {
	if h.pos != nil {
		for i := range h.es {
			(*h.pos)[h.es[i].ID] = -1
		}
	}
	clear(h.es)
	h.es = h.es[:0]
}

// Pop removes and returns the minimum entry. The heap must not be empty.
func (h *Heap[V]) Pop() Entry[V] {
	top := h.take(0)
	if len(h.es) > 0 {
		h.down(0)
	}
	return top
}

// Remove removes and returns the entry in slot i.
func (h *Heap[V]) Remove(i int) Entry[V] {
	e := h.take(i)
	if i == len(h.es) {
		return e // the last entry: nothing moved
	}
	if p := (i - 1) / 2; i > 0 && before(h.es[i].K, h.es[i].ID, h.es[p].K, h.es[p].ID) {
		h.up(i)
	} else {
		h.down(i)
	}
	return e
}

// take removes the entry in slot i and moves the last entry into the
// hole; the caller restores the order (the sifts index the moved entry).
func (h *Heap[V]) take(i int) Entry[V] {
	e := h.es[i]
	last := len(h.es) - 1
	h.es[i] = h.es[last]
	var zero Entry[V]
	h.es[last] = zero // drop the payload's references
	h.es = h.es[:last]
	if h.pos != nil {
		(*h.pos)[e.ID] = -1
	}
	return e
}

// Fix sets the key of the entry in slot i to k and restores the heap
// order. The old key tells the direction, so a lowered key never reads the
// children and a raised one never reads the parent.
func (h *Heap[V]) Fix(i int, k float64) {
	e := &h.es[i]
	old := e.K
	e.K = k
	if k < old {
		h.up(i)
	} else if k > old {
		h.down(i)
	}
}

// up moves the entry in slot i toward the root until its parent orders
// before it.
func (h *Heap[V]) up(i int) {
	es, pos := h.es, h.index()
	e := es[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(e.K, e.ID, es[p].K, es[p].ID) {
			break
		}
		es[i] = es[p]
		if pos != nil {
			pos[es[i].ID] = int32(i)
		}
		i = p
	}
	es[i] = e
	if pos != nil {
		pos[e.ID] = int32(i)
	}
}

// down moves the entry in slot i toward the leaves until no child orders
// before it.
func (h *Heap[V]) down(i int) {
	es, pos := h.es, h.index()
	e := es[i]
	for {
		c := 2*i + 1
		if c >= len(es) {
			break
		}
		if r := c + 1; r < len(es) && before(es[r].K, es[r].ID, es[c].K, es[c].ID) {
			c = r
		}
		if !before(es[c].K, es[c].ID, e.K, e.ID) {
			break
		}
		es[i] = es[c]
		if pos != nil {
			pos[es[i].ID] = int32(i)
		}
		i = c
	}
	es[i] = e
	if pos != nil {
		pos[e.ID] = int32(i)
	}
}

// index returns the position index, nil when the heap has none. (An
// indexed heap's index is non-nil whenever it holds entries: Append grows
// it.)
func (h *Heap[V]) index() []int32 {
	if h.pos == nil {
		return nil
	}
	return *h.pos
}

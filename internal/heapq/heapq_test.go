package heapq

import (
	"math/rand"
	"sort"
	"testing"
)

// ref is the sorted reference the heap is checked against: the live
// entries by ID, plus the ones the heap ever held (for the index check).
type ref struct {
	keys map[int64]float64
	seen map[int64]bool
}

// sorted returns the live IDs in (key, ID) order.
func (r *ref) sorted() []int64 {
	ids := make([]int64, 0, len(r.keys))
	for id := range r.keys {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if r.keys[a] != r.keys[b] {
			return r.keys[a] < r.keys[b]
		}
		return a < b
	})
	return ids
}

// check verifies the heap order, the payloads, the contents against the
// reference and, on an indexed heap, the position index in both
// directions.
func check(t *testing.T, h *Heap[int64], r *ref, indexed bool, op string) {
	t.Helper()
	if h.Len() != len(r.keys) {
		t.Fatalf("%s: %d entries, reference holds %d", op, h.Len(), len(r.keys))
	}
	for i := 0; i < h.Len(); i++ {
		e := h.At(i)
		if k, ok := r.keys[e.ID]; !ok || k != e.K || e.V != -e.ID {
			t.Fatalf("%s: slot %d holds %+v, reference key %g (live %v)", op, i, *e, k, ok)
		}
		if p := h.At((i - 1) / 2); i > 0 && before(e.K, e.ID, p.K, p.ID) {
			t.Fatalf("%s: slot %d = %+v orders before its parent %+v", op, i, *e, *h.At((i - 1) / 2))
		}
		if indexed && h.Slot(e.ID) != i {
			t.Fatalf("%s: slot %d holds ID %d, whose position reads %d", op, i, e.ID, h.Slot(e.ID))
		}
	}
	if !indexed {
		return
	}
	for id := range r.seen {
		if _, live := r.keys[id]; !live && h.Slot(id) != -1 {
			t.Fatalf("%s: removed ID %d still indexed at slot %d", op, id, h.Slot(id))
		}
	}
	if h.Slot(1<<40) != -1 {
		t.Fatalf("%s: an ID never pushed is indexed", op)
	}
}

// TestRandomAgainstSorted drives random Push, Pop, Fix (raising and
// lowering keys), Remove at arbitrary slots, Append+Init and Reset through
// indexed and plain heaps and checks them against a sorted reference
// after every operation. Keys come from a small set, so the ID tie-break
// decides many comparisons.
func TestRandomAgainstSorted(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		var h Heap[int64]
		if indexed {
			h.IndexByID()
		}
		r := &ref{keys: map[int64]float64{}, seen: map[int64]bool{}}
		key := func() float64 { return float64(rng.Intn(20)) * 0.5 }
		freeID := func() int64 {
			for {
				id := int64(rng.Intn(300))
				if _, live := r.keys[id]; !live {
					return id
				}
			}
		}
		counts := map[string]int{}
		for step := 0; step < 20000; step++ {
			var op string
			switch c := rng.Intn(100); {
			case c < 35 && h.Len() < 200:
				op = "Push"
				id, k := freeID(), key()
				h.Push(k, id, -id)
				r.keys[id], r.seen[id] = k, true
			case c < 55 && h.Len() > 0:
				op = "Pop"
				want := r.sorted()[0]
				got := h.Pop()
				if got.ID != want || got.K != r.keys[want] || got.V != -want {
					t.Fatalf("step %d: Pop = %+v, want ID %d key %g", step, got, want, r.keys[want])
				}
				delete(r.keys, want)
			case c < 70 && h.Len() > 0:
				i := rng.Intn(h.Len())
				id, k := h.At(i).ID, h.At(i).K
				if rng.Intn(2) == 0 {
					op = "Fix raise"
					k += float64(1 + rng.Intn(5))
				} else {
					op = "Fix lower"
					k -= float64(1 + rng.Intn(5))
				}
				r.keys[id] = k
				h.Fix(i, k)
			case c < 85 && h.Len() > 0:
				op = "Remove"
				i := rng.Intn(h.Len())
				id := h.At(i).ID
				if got := h.Remove(i); got.ID != id || got.K != r.keys[id] {
					t.Fatalf("step %d: Remove(%d) = %+v, want ID %d key %g", step, i, got, id, r.keys[id])
				}
				delete(r.keys, id)
			case c < 97:
				op = "Append+Init"
				for m := rng.Intn(8); m > 0 && h.Len() < 200; m-- {
					id, k := freeID(), key()
					h.Append(k, id, -id)
					r.keys[id], r.seen[id] = k, true
				}
				h.Init()
			default:
				op = "Reset"
				h.Reset()
				clear(r.keys)
			}
			counts[op]++
			check(t, &h, r, indexed, op)
		}
		for _, op := range []string{"Push", "Pop", "Fix raise", "Fix lower", "Remove", "Append+Init", "Reset"} {
			if counts[op] == 0 {
				t.Fatalf("indexed=%v: %s never ran", indexed, op)
			}
		}
		// Drain: the pops come out in the reference's sorted order.
		for _, want := range r.sorted() {
			if got := h.Pop(); got.ID != want {
				t.Fatalf("indexed=%v drain: Pop ID %d, want %d", indexed, got.ID, want)
			}
		}
	}
}

// TestSteadyStatePushPopAllocs pins the reason the package exists: once
// the backing array (and the position index) have grown, Push, Pop, Fix
// and Remove allocate nothing, for a pointer payload too.
func TestSteadyStatePushPopAllocs(t *testing.T) {
	fn := func() {}
	var timers Heap[func()]
	var dl Heap[struct{}]
	dl.IndexByID()
	round := func() {
		for i := 0; i < 64; i++ {
			timers.Push(float64((i*37)%64), int64(i), fn)
			dl.Push(float64((i*11)%64), int64(i), struct{}{})
		}
		dl.Fix(5, -1)
		dl.Remove(dl.Slot(40))
		for timers.Len() > 0 {
			timers.Pop().V()
		}
		for dl.Len() > 0 {
			dl.Pop()
		}
	}
	round() // grow the backing arrays and the index
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("steady-state heap round allocates %v times, want 0", a)
	}
}

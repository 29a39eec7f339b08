package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 1000
	var counts [n]int32
	ForEach(n, 8, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForEachSequentialFallback(t *testing.T) {
	order := []int{}
	ForEach(5, 1, func(i int) { order = append(order, i) }) // workers=1: in order
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential ForEach out of order: %v", order)
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	called := false
	ForEach(0, 4, func(i int) { called = true })
	ForEach(-3, 4, func(i int) { called = true })
	if called {
		t.Error("ForEach should not invoke fn for non-positive n")
	}
}

func TestForEachDefaultWorkers(t *testing.T) {
	var total int64
	ForEach(100, 0, func(i int) { atomic.AddInt64(&total, int64(i)) })
	if total != 4950 {
		t.Errorf("sum = %d, want 4950", total)
	}
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers must be at least 1")
	}
}

func TestMapPreservesOrder(t *testing.T) {
	out := Map(50, 4, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// Property: Map with any worker count equals the sequential map.
func TestPropertyMapEquivalence(t *testing.T) {
	f := func(nRaw, wRaw uint8) bool {
		n := int(nRaw) % 64
		w := int(wRaw)%8 + 1
		got := Map(n, w, func(i int) int { return 3*i + 1 })
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != 3*i+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

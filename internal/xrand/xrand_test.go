package xrand

import (
	"testing"
	"testing/quick"
)

func TestDeterministicBySeed(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield the same stream")
		}
	}
	c := New(43)
	same := true
	a = New(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestNewFromStringStable(t *testing.T) {
	if SeedFromString("layered/n=50") != SeedFromString("layered/n=50") {
		t.Error("string seeds must be stable")
	}
	if SeedFromString("a") == SeedFromString("b") {
		t.Error("different strings should hash differently")
	}
}

func TestPropertyUniformInRange(t *testing.T) {
	f := func(seed int64, loRaw, spanRaw uint16) bool {
		lo := float64(loRaw)
		hi := lo + float64(spanRaw) + 1
		s := New(seed)
		for i := 0; i < 20; i++ {
			v := s.Uniform(lo, hi)
			if v < lo || v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(7)
	trues := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			trues++
		}
	}
	frac := float64(trues) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("Bool(0.3) frequency = %.3f, want ≈0.3", frac)
	}
	if s.Bool(0) {
		t.Error("Bool(0) must be false")
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(3)
	p := s.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

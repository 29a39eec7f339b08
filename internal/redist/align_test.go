package redist_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/oracle"
	"repro/internal/platform"
	"repro/internal/redist"
)

// alignMode names one way these tests solve an alignment: the exact and
// greedy assignments forced at every width, or the size-selected policy
// production code runs (exact up to AlignExactCap receivers, greedy above).
type alignMode int

const (
	modeExact alignMode = iota
	modeGreedy
	modeAuto
)

var allModes = []alignMode{modeExact, modeGreedy, modeAuto}

func (m alignMode) String() string { return [...]string{"hungarian", "greedy", "auto"}[m] }

// greedy reports whether the mode takes the greedy assignment at q
// receivers.
func (m alignMode) greedy(q int) bool {
	return m == modeGreedy || m == modeAuto && q > redist.AlignExactCap
}

// align runs the indexed engine in mode m.
func (m alignMode) align(dst []int, total float64, senders, receivers []int, sc *redist.AlignScratch) []int {
	switch m {
	case modeExact:
		return redist.AlignReceiversExact(dst, total, senders, receivers, sc)
	case modeGreedy:
		return redist.AlignReceiversGreedy(dst, total, senders, receivers, sc)
	}
	return redist.AlignReceiversScratch(dst, total, senders, receivers, sc)
}

// alignOracleCase runs both alignment engines on one instance and fails on
// the first rank where they diverge: the sparse path must be byte-identical
// to the dense map-and-matrix implementation, not merely equally optimal.
func alignOracleCase(t *testing.T, total float64, senders, receivers []int, mode alignMode, sc *redist.AlignScratch) {
	t.Helper()
	want := oracle.AlignReceivers(nil, total, senders, receivers, mode.greedy(len(receivers)))
	got := mode.align(nil, total, senders, receivers, sc)
	if len(got) != len(want) {
		t.Fatalf("aligned length %d, want %d", len(got), len(want))
	}
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("mode %v p=%d q=%d: rank %d = proc %d, dense oracle says %d\nsenders=%v\nreceivers=%v\ngot =%v\nwant=%v",
				mode, len(senders), len(receivers), r, got[r], want[r], senders, receivers, got, want)
		}
	}
}

// TestAlignSparseVsDenseOracle drives the sparse alignment engine against
// the dense oracle over randomized (cluster scale × widths × overlap
// patterns) instances — well over 500 cases per run, every mode.
func TestAlignSparseVsDenseOracle(t *testing.T) {
	scales := []struct {
		name string
		P    int
	}{{"grelon", 120}, {"big512", 512}, {"big1024", 1024}}
	modes := allModes
	var sc redist.AlignScratch // shared across every case: stale state must not leak
	for _, scale := range scales {
		scale := scale
		t.Run(scale.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(scale.P)))
			for trial := 0; trial < 300; trial++ {
				maxW := 48
				if trial%7 == 0 {
					maxW = 160 // wide allocations: drives auto past its cap
				}
				p := 1 + rng.Intn(maxW)
				q := 1 + rng.Intn(maxW)
				if p > scale.P {
					p = scale.P
				}
				if q > scale.P {
					q = scale.P
				}
				var senders, receivers []int
				switch trial % 3 {
				case 0:
					// Shifted windows: the half-overlapping pattern the
					// mapper's earliest-available selection produces.
					base := 0
					if span := p + q/2; span < scale.P {
						base = rng.Intn(scale.P - span)
					}
					for i := 0; i < p; i++ {
						senders = append(senders, (base+i)%scale.P)
					}
					for j := 0; j < q; j++ {
						receivers = append(receivers, (base+p/2+j)%scale.P)
					}
					receivers = dedupe(receivers)
				case 1:
					// Same set, scrambled: the RATS adoption case.
					perm := rng.Perm(scale.P)
					senders = append(senders, perm[:p]...)
					receivers = append(receivers, perm[:p]...)
					rng.Shuffle(len(receivers), func(i, j int) {
						receivers[i], receivers[j] = receivers[j], receivers[i]
					})
				default:
					// Independent random sets: overlap from none to full.
					perm := rng.Perm(scale.P)
					senders = append(senders, perm[:p]...)
					perm2 := rng.Perm(scale.P)
					receivers = append(receivers, perm2[:q]...)
				}
				total := 1 + rng.Float64()*1e9
				mode := modes[trial%len(modes)]
				alignOracleCase(t, total, senders, receivers, mode, &sc)
			}
		})
	}
}

// dedupe removes repeated processor ids, keeping first occurrences (the
// shifted-window generator can wrap around small clusters).
func dedupe(ids []int) []int {
	seen := map[int]bool{}
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// TestAlignDegenerateTotalMatchesDense: a non-positive byte count makes
// every band benefit ≤ 0; both modes must then leave the receiver order
// untouched, exactly like the dense oracle (the greedy path once pushed
// the non-positive candidates and permuted anyway).
func TestAlignDegenerateTotalMatchesDense(t *testing.T) {
	senders := []int{0, 1, 2, 3}
	receivers := []int{2, 3, 4, 5, 0, 1}
	for _, total := range []float64{0, -8} {
		for _, mode := range allModes {
			alignOracleCase(t, total, senders, receivers, mode, nil)
		}
	}
}

// TestAlignScratchReuseMatchesFresh pins that a reused scratch gives the
// same answers as a fresh one (no state leaks between calls of different
// sizes and modes).
func TestAlignScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var sc redist.AlignScratch
	for trial := 0; trial < 400; trial++ {
		p := 1 + rng.Intn(20)
		q := 1 + rng.Intn(20)
		perm := rng.Perm(64)
		senders := perm[:p]
		perm2 := rng.Perm(64)
		receivers := perm2[:q]
		mode := allModes[rng.Intn(len(allModes))]
		total := 1 + rng.Float64()*1e6
		fresh := mode.align(nil, total, senders, receivers, nil)
		reused := mode.align(nil, total, senders, receivers, &sc)
		for i := range fresh {
			if fresh[i] != reused[i] {
				t.Fatalf("trial %d mode %v: scratch reuse diverged at rank %d: %v vs %v",
					trial, mode, i, reused, fresh)
			}
		}
	}
}

// TestAlignMaxProcsIDs: the indexed scratch sizes its id-indexed slices to
// the largest processor id, so ids at the top of the valid range
// (platform.MaxProcs-1, the largest id a validated cluster has) must take
// the indexed path and align exactly like small ones, in every mode.
func TestAlignMaxProcsIDs(t *testing.T) {
	top := platform.MaxProcs - 1
	senders := []int{top - 4, 3, top}
	receivers := []int{top, top - 4, 3}
	sc := &redist.AlignScratch{}
	got := redist.AlignReceiversScratch(nil, 300, senders, receivers, sc)
	for r, p := range got {
		if senders[r] != p {
			t.Errorf("rank %d = proc %d, want %d (identity recovery)", r, p, senders[r])
		}
	}
	if sc.NExact != 1 {
		t.Errorf("NExact = %d, want 1: ids below platform.MaxProcs must take the indexed path", sc.NExact)
	}
	wide := []int{top, 0, top - 1, 7, top - 2, 9}
	for _, mode := range allModes {
		alignOracleCase(t, 300, senders, receivers, mode, sc)
		alignOracleCase(t, 120, wide, []int{9, top - 1, 5, top, 0}, mode, sc)
	}
}

// Property: the size-selected policy keeps at least as many bytes local as
// greedy, which keeps at least as many as no alignment, over randomized
// overlap patterns on both sides of the cap.
func TestPropertyAutoDominance(t *testing.T) {
	f := func(seed int64, wide bool) bool {
		r := rand.New(rand.NewSource(seed))
		nProcs := 48
		hi := 12
		if wide {
			nProcs = 400
			hi = 180 // q can exceed AlignExactCap: auto takes greedy
		}
		p := 1 + r.Intn(hi)
		q := 1 + r.Intn(hi)
		senders := r.Perm(nProcs)[:p]
		receivers := r.Perm(nProcs)[:q]
		total := 100.0
		auto := redist.AlignReceivers(total, senders, receivers)
		greedy := modeGreedy.align(nil, total, senders, receivers, nil)
		if !redist.SameSet(auto, receivers) || !redist.SameSet(greedy, receivers) {
			return false
		}
		lbA := redist.LocalBytes(total, senders, auto)
		lbG := redist.LocalBytes(total, senders, greedy)
		lbN := redist.LocalBytes(total, senders, receivers)
		return lbA >= lbG-1e-9 && lbG >= lbN-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAlignReceiversIntoNeverAliases: every path of the aligner — early
// exits included — must return storage disjoint from receivers, so a
// caller recycling the result as a candidate buffer can never corrupt the
// committed processor set it was aligned against.
func TestAlignReceiversIntoNeverAliases(t *testing.T) {
	cases := []struct {
		name               string
		senders, receivers []int
		mode               alignMode
	}{
		{"disjoint", []int{0, 1}, []int{5, 6, 7}, modeExact},
		{"overlap-hungarian", []int{0, 1, 2, 3}, []int{7, 2, 8, 1, 9}, modeExact},
		{"overlap-greedy", []int{0, 1, 2, 3}, []int{7, 2, 8, 1, 9}, modeGreedy},
		{"overlap-auto", []int{0, 1, 2, 3}, []int{7, 2, 8, 1, 9}, modeAuto},
		// Ids at the top of the valid range: the widest id-indexed scratch.
		{"exotic-ids", []int{platform.MaxProcs - 1, 4}, []int{4, platform.MaxProcs - 1}, modeExact},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			orig := append([]int(nil), c.receivers...)
			for _, dst := range [][]int{nil, make([]int, 0, 64)} {
				got := c.mode.align(dst, 60, c.senders, c.receivers, nil)
				if len(got) != len(c.receivers) {
					t.Fatalf("aligned length %d, want %d", len(got), len(c.receivers))
				}
				for i := range got {
					got[i] = -99 // scribble over the result…
				}
				for i, p := range c.receivers { // …receivers must be untouched
					if p != orig[i] {
						t.Fatalf("result aliases receivers: receivers[%d] became %d", i, p)
					}
				}
				copy(c.receivers, orig)
			}
		})
	}
}

func BenchmarkAlignReceivers(b *testing.B) {
	for _, q := range []int{32, 128, 384} {
		senders := make([]int, q)
		receivers := make([]int, q)
		for i := 0; i < q; i++ {
			senders[i] = i
			receivers[i] = q/2 + i
		}
		var sc redist.AlignScratch
		buf := make([]int, 0, q)
		for _, mode := range allModes {
			mode := mode
			b.Run(mode.String()+"/q="+itoa(q), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buf = mode.align(buf[:0], 1e9, senders, receivers, &sc)
				}
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestAlignAutoCapBoundary pins the size-selected boundary: a receiver
// count of exactly AlignExactCap still runs the exact Hungarian engine,
// one above takes greedy, while the exact oracle entry point stays exact
// above the cap.
func TestAlignAutoCapBoundary(t *testing.T) {
	run := func(t *testing.T, q int, mode alignMode) (exact, greedy uint64) {
		t.Helper()
		senders := make([]int, q)
		receivers := make([]int, q)
		for i := range senders {
			senders[i] = i
			receivers[i] = q/2 + i // half-overlapping: alignment has work to do
		}
		var sc redist.AlignScratch
		mode.align(nil, 1e9, senders, receivers, &sc)
		return sc.NExact, sc.NGreedy
	}
	t.Run("default-cap", func(t *testing.T) {
		for _, tc := range []struct {
			q         int
			wantExact bool
		}{
			{redist.AlignExactCap - 1, true},
			{redist.AlignExactCap, true},
			{redist.AlignExactCap + 1, false},
		} {
			exact, greedy := run(t, tc.q, modeAuto)
			if tc.wantExact && (exact != 1 || greedy != 0) {
				t.Errorf("q=%d: counters (exact=%d greedy=%d), want exact engine", tc.q, exact, greedy)
			}
			if !tc.wantExact && (exact != 0 || greedy != 1) {
				t.Errorf("q=%d: counters (exact=%d greedy=%d), want greedy", tc.q, exact, greedy)
			}
		}
	})
	t.Run("explicit-modes-ignore-cap", func(t *testing.T) {
		exact, greedy := run(t, 2*redist.AlignExactCap, modeExact)
		if exact != 1 || greedy != 0 {
			t.Errorf("AlignReceiversExact at q=%d: (exact=%d greedy=%d), cap must be ignored",
				2*redist.AlignExactCap, exact, greedy)
		}
	})
}

package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/redist"
)

// oracleRedistTime is the pre-overhaul RedistTime implementation, kept
// verbatim as a test oracle: expand the block matrix to []Flow, accumulate
// per-node in/out volumes in maps, cap below by the slowest flow at its
// empirical bandwidth, add the longest route latency.
func oracleRedistTime(cl *platform.Cluster, bytes float64, senders, receivers []int) float64 {
	if bytes <= 0 || len(senders) == 0 || len(receivers) == 0 {
		return 0
	}
	if len(senders) == len(receivers) && redist.SameSet(senders, receivers) {
		return 0
	}
	flows := redist.Flows(bytes, senders, receivers)
	out := make(map[int]float64)
	in := make(map[int]float64)
	t := 0.0
	maxLat := 0.0
	for _, f := range flows {
		if f.SrcProc == f.DstProc {
			continue // local copies are free
		}
		out[f.SrcProc] += f.Bytes
		in[f.DstProc] += f.Bytes
		if bw := cl.EffectiveBandwidth(f.SrcProc, f.DstProc); bw > 0 {
			if ft := f.Bytes / bw; ft > t {
				t = ft
			}
		}
		if _, lat := cl.AppendRoute(nil, f.SrcProc, f.DstProc); lat > maxLat {
			maxLat = lat
		}
	}
	beta := cl.LinkBandwidth
	for _, b := range out {
		if v := b / beta; v > t {
			t = v
		}
	}
	for _, b := range in {
		if v := b / beta; v > t {
			t = v
		}
	}
	if t == 0 {
		return 0
	}
	return t + maxLat
}

// randomProcSet draws n distinct processors of cl in random rank order.
func randomProcSet(rng *rand.Rand, cl *platform.Cluster, n int) []int {
	perm := rng.Perm(cl.P)
	return perm[:n]
}

// TestRedistTimeMatchesOracle is the equivalence property of the hot-path
// overhaul: the allocation-free slice/banded-matrix implementation must
// agree exactly with the historical map/flows implementation on random
// sender/receiver sets, on flat and hierarchical clusters alike.
func TestRedistTimeMatchesOracle(t *testing.T) {
	clusters := []*platform.Cluster{
		platform.Chti(),    // flat, small
		platform.Grillon(), // flat
		platform.Grelon(),  // hierarchical, 24-node cabinets
		platform.Big512(),  // hierarchical, 32-node cabinets
		// Flat custom cluster past the stack-bitset range: the estimator's
		// same-set check takes its counting fallback.
		{Name: "flat1100", P: redist.BitsetMaxP + 76, SpeedGFlops: 3,
			LinkLatency: platform.GigabitLatency, LinkBandwidth: platform.GigabitBandwidth,
			WMax: platform.DefaultWMax},
	}
	for _, cl := range clusters {
		cl := cl
		t.Run(cl.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cl.P)))
			est := NewEstimator(cl)
			for iter := 0; iter < 400; iter++ {
				p := 1 + rng.Intn(cl.P)
				q := 1 + rng.Intn(cl.P)
				senders := randomProcSet(rng, cl, p)
				var receivers []int
				switch iter % 4 {
				case 0: // independent draw: overlap by chance
					receivers = randomProcSet(rng, cl, q)
				case 1: // same set, permuted rank order: must be free
					receivers = append([]int(nil), senders...)
					rng.Shuffle(len(receivers), func(i, j int) {
						receivers[i], receivers[j] = receivers[j], receivers[i]
					})
				case 2: // disjoint within the first min(P, p+q) processors
					all := rng.Perm(cl.P)
					senders = all[:p]
					if p+q > cl.P {
						q = cl.P - p
						if q == 0 {
							q = 1
							senders = all[:p-1]
						}
					}
					receivers = all[len(senders) : len(senders)+q]
				case 3: // heavy overlap: receivers are a prefix rotation
					receivers = append([]int(nil), senders...)
					if len(receivers) > 1 {
						r := receivers[0]
						copy(receivers, receivers[1:])
						receivers[len(receivers)-1] = r
					}
				}
				bytes := rng.Float64() * 2e9
				if iter%37 == 0 {
					bytes = 0 // zero-volume edges are free
				}
				want := oracleRedistTime(cl, bytes, senders, receivers)
				got := est.RedistTime(bytes, senders, receivers)
				if got != want && !(math.Abs(got-want) <= 1e-12*math.Max(got, want)) {
					t.Fatalf("iter %d: RedistTime(%g, %v, %v) = %g, oracle %g",
						iter, bytes, senders, receivers, got, want)
				}
			}
		})
	}
}

// TestHetFiguresMatchPlatform pins the satellite fix for the hetero Map
// regression: the estimator's id-indexed link-figure caches must reproduce
// platform.EffectiveBandwidth/RouteLatency bit-exactly for every node pair
// — including clusters that override latencies, which the het presets do
// not.
func TestHetFiguresMatchPlatform(t *testing.T) {
	latHet := platform.GrelonHet()
	latHet.Name = "grelon-het-lat"
	latHet.LinkLatencies = map[platform.LinkID]float64{
		latHet.NodeUpLink(7):   250e-6,
		latHet.NodeDownLink(7): 250e-6,
		latHet.CabUpLink(2):    1e-3,
		latHet.CabDownLink(2):  1e-3,
	}
	for _, cl := range []*platform.Cluster{platform.GrelonHet(), platform.Big512Het(), latHet} {
		t.Run(cl.Name, func(t *testing.T) {
			est := NewEstimator(cl)
			if !est.hetLinks {
				t.Fatalf("cluster %s should take the het-links path", cl.Name)
			}
			rng := rand.New(rand.NewSource(7))
			for iter := 0; iter < 5000; iter++ {
				src, dst := rng.Intn(cl.P), rng.Intn(cl.P)
				if src == dst {
					continue
				}
				bw, lat := est.hetFigures(src, dst)
				if wantBW := cl.EffectiveBandwidth(src, dst); bw != wantBW {
					t.Fatalf("hetFigures(%d,%d) bw = %g, platform %g", src, dst, bw, wantBW)
				}
				if wantLat := cl.RouteLatency(src, dst); lat != wantLat {
					t.Fatalf("hetFigures(%d,%d) lat = %g, platform %g", src, dst, lat, wantLat)
				}
			}
		})
	}
}

// TestHetRedistTimeAllocFree asserts the het fast path stays allocation-
// free in steady state — the property that closed the pr7-hetero ~2× Map
// gap (per-block map lookups in EffectiveBandwidth/RouteLatency).
func TestHetRedistTimeAllocFree(t *testing.T) {
	for _, cl := range []*platform.Cluster{platform.GrelonHet(), platform.Big512Het()} {
		t.Run(cl.Name, func(t *testing.T) {
			est := NewEstimator(cl)
			rng := rand.New(rand.NewSource(11))
			senders := randomProcSet(rng, cl, 24)
			receivers := randomProcSet(rng, cl, 48)
			est.RedistTime(1e9, senders, receivers) // warm the scratch
			allocs := testing.AllocsPerRun(50, func() {
				est.RedistTime(1e9, senders, receivers)
			})
			if allocs != 0 {
				t.Errorf("RedistTime on %s allocates %.1f times per call, want 0", cl.Name, allocs)
			}
		})
	}
}

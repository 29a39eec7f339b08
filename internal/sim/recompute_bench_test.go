package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/platform"
)

// BenchmarkRecompute isolates the steady-state recompute path of the two
// fluid-network pools: a fixed-size random flow population over a
// production-scale cluster where every completion immediately starts a
// replacement flow, so each benchmark op is one population change — the
// rate re-solve plus the completion bookkeeping, without the engine's
// timer machinery or the schedule-replay setup around it. allocs/op is
// the headline: the flownet pool recycles members, entities and solver
// state, while the reference pool pays per-flow allocations on every
// churn cycle. cmd/benchtraj folds the per-cluster allocs/op ratio into
// BENCH_sim.json next to the end-to-end replay speedups.
func BenchmarkRecompute(b *testing.B) {
	const population = 512
	for _, cl := range []*platform.Cluster{platform.Big512(), platform.Big1024()} {
		caps := cl.LinkCapacities()
		for _, eng := range []struct {
			name string
			new  func([]float64) *Engine
		}{
			{"flownet", New},
			{"maxmin", NewReference},
		} {
			b.Run(cl.Name+"/"+eng.name, func(b *testing.B) {
				pool := eng.new(caps).pool
				rng := rand.New(rand.NewSource(41))
				// Pre-generated churn: route construction and the shared
				// completion callback live outside the measurement — a
				// per-flow closure or route slice would charge both pools
				// identically and drown out the solver-side difference
				// being measured.
				type churnFlow struct {
					links   []int
					rateCap float64
					volume  float64
				}
				flows := make([]churnFlow, 8192)
				for i := range flows {
					src := rng.Intn(cl.P)
					dst := rng.Intn(cl.P)
					for dst == src {
						dst = rng.Intn(cl.P)
					}
					links, _ := cl.Route(src, dst)
					flows[i] = churnFlow{links: links, rateCap: cl.EffectiveBandwidth(src, dst), volume: 1e5 + rng.Float64()*1e9}
				}
				next := 0
				remaining := b.N
				var startOne func()
				done := func() {
					if remaining > 0 {
						remaining--
						startOne()
					}
				}
				startOne = func() {
					f := &flows[next%len(flows)]
					next++
					pool.start(f.links, f.rateCap, f.volume, done)
				}
				for i := 0; i < population; i++ {
					startOne()
				}
				pool.recompute()
				now := 0.0
				b.ResetTimer()
				b.ReportAllocs()
				var ms0 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				for remaining > 0 && pool.count() > 0 {
					if pool.dirty() {
						pool.recompute()
					}
					t := pool.next(now)
					if math.IsInf(t, 1) {
						b.Fatal("population stalled")
					}
					if t > now {
						pool.advance(t - now)
						now = t
					}
					pool.popDrained(now)
				}
				b.StopTimer()
				// allocs/op rounds to integers; the churn sits near zero on
				// the flownet side, so report the exact fraction too.
				var ms1 runtime.MemStats
				runtime.ReadMemStats(&ms1)
				b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N), "mallocs/op")
			})
		}
	}
}

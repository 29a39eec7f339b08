package flownet_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/flownet"
	"repro/internal/oracle"
	"repro/internal/platform"
)

// network is the part of the replay's Network seam the churn loop drives.
type network interface {
	Start(links []int, rateCap, volume float64) int
	Flows() int
	Dirty() bool
	Solve()
	PopDrained(now, eps float64, yield func(id int)) bool
	NextDeadline(now float64) float64
	Advance(dt float64)
}

// BenchmarkRecompute isolates the steady-state recompute path of the two
// fluid networks: a fixed-size random flow population over a
// production-scale cluster where every completion immediately starts a
// replacement flow, so each benchmark op is one population change — the
// rate re-solve plus the completion bookkeeping, without the replay's
// event loop or schedule setup around it. allocs/op is
// the headline: flownet recycles members, entities and solver state,
// while the reference network pays per-flow allocations on every
// churn cycle. cmd/benchtraj folds the per-cluster allocs/op ratio into
// BENCH_sim.json next to the end-to-end replay speedups.
func BenchmarkRecompute(b *testing.B) {
	const completionEps = 1e-6 // the replay's drain tolerance
	const population = 512
	for _, cl := range []*platform.Cluster{platform.Big512(), platform.Big1024()} {
		caps := cl.LinkCapacities()
		for _, eng := range []struct {
			name string
			new  func([]float64) network
		}{
			{"flownet", func(c []float64) network { return flownet.New(c) }},
			{"maxmin", func(c []float64) network { return oracle.NewMaxMinNet(c) }},
		} {
			b.Run(cl.Name+"/"+eng.name, func(b *testing.B) {
				net := eng.new(caps)
				rng := rand.New(rand.NewSource(41))
				// Pre-generated churn: route construction lives outside the
				// measurement — a per-flow route slice would charge both
				// networks identically and drown out the solver-side
				// difference being measured.
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
					links, _ := cl.AppendRoute(nil, src, dst)
					flows[i] = churnFlow{links: links, rateCap: cl.EffectiveBandwidth(src, dst), volume: 1e5 + rng.Float64()*1e9}
				}
				next := 0
				startOne := func() {
					f := &flows[next%len(flows)]
					next++
					net.Start(f.links, f.rateCap, f.volume)
				}
				// Every completion starts one replacement, after the pop:
				// the network must not change while it yields.
				drained := 0
				countDrained := func(int) { drained++ }
				for i := 0; i < population; i++ {
					startOne()
				}
				net.Solve()
				now := 0.0
				remaining := b.N
				b.ResetTimer()
				b.ReportAllocs()
				var ms0 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				for remaining > 0 && net.Flows() > 0 {
					if net.Dirty() {
						net.Solve()
					}
					t := net.NextDeadline(now)
					if math.IsInf(t, 1) {
						b.Fatal("population stalled")
					}
					if t > now {
						net.Advance(t - now)
						now = t
					}
					drained = 0
					net.PopDrained(now, completionEps, countDrained)
					for ; drained > 0 && remaining > 0; drained-- {
						remaining--
						startOne()
					}
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

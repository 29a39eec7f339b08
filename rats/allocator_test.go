package rats

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/exp"
	"repro/internal/moldable"
)

// TestAllocatorMatchesBaselines pins WithAllocator(CPA) and
// WithAllocator(MCPA) to the evaluation harness's CPA and MCPA two-step
// baselines: the processor count of every placement must equal the
// allocation alloc.Compute returns under exp.CPABaseline().Alloc and
// exp.MCPABaseline().Alloc. The baseline mapping never changes an
// allocation, so the placements expose it directly. Only HCPA carries the
// per-level cap; CPA and MCPA must not inherit it from the default.
func TestAllocatorMatchesBaselines(t *testing.T) {
	specs := []struct {
		allocator Allocator
		spec      exp.AlgoSpec
	}{{CPA, exp.CPABaseline()}, {MCPA, exp.MCPABaseline()}}
	scens := exp.Subsample(exp.Scenarios(), 80)
	for _, cl := range []*Cluster{Grillon(), Grelon()} {
		for _, c := range specs {
			s := New(WithCluster(cl), WithAllocator(c.allocator))
			for _, sc := range scens {
				g := sc.Graph()
				want := alloc.Compute(g, moldable.NewCosts(g, cl.pc.PlanSpeedGFlops()), cl.pc, *c.spec.Alloc)
				r, err := s.Schedule(wrap(sc.Name(), sc.Graph()))
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", cl.Name(), c.allocator, sc.Name(), err)
				}
				for _, p := range r.Placements {
					if len(p.Procs) != want[p.Task] {
						t.Errorf("%s/%s/%s: task %d runs on %d processors, %s allocates %d",
							cl.Name(), c.allocator, sc.Name(), p.Task, len(p.Procs), c.spec.Name, want[p.Task])
						break
					}
				}
			}
		}
	}
}

package moldable

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dag"
)

func TestTimeBasics(t *testing.T) {
	m := Model{SeqTime: 100, Alpha: 0.2}
	if got := m.Time(1); got != 100 {
		t.Errorf("T(1) = %g, want 100", got)
	}
	// T(p→∞) → α·T(1)
	if got := m.Time(1 << 20); math.Abs(got-20) > 0.01 {
		t.Errorf("T(inf) = %g, want ≈20", got)
	}
	// T(2) = 100·(0.2 + 0.8/2) = 60
	if got := m.Time(2); math.Abs(got-60) > 1e-12 {
		t.Errorf("T(2) = %g, want 60", got)
	}
	if got := m.Time(0); got != m.Time(1) {
		t.Errorf("T(0) should clamp to T(1): %g vs %g", got, m.Time(1))
	}
}

func TestWork(t *testing.T) {
	m := Model{SeqTime: 100, Alpha: 0.2}
	if got := m.Work(1); got != 100 {
		t.Errorf("W(1) = %g, want 100", got)
	}
	if got := m.Work(2); math.Abs(got-120) > 1e-12 {
		t.Errorf("W(2) = %g, want 120", got)
	}
}

// Property: T is monotonically non-increasing and W monotonically
// non-decreasing in p, for any valid α.
func TestPropertyMonotonicity(t *testing.T) {
	f := func(seq float64, alphaRaw float64, pRaw uint8) bool {
		seq = math.Abs(seq)
		if math.IsNaN(seq) || math.IsInf(seq, 0) || seq == 0 {
			seq = 1
		}
		alpha := math.Mod(math.Abs(alphaRaw), MaxAlpha)
		p := int(pRaw)%200 + 1
		m := Model{SeqTime: seq, Alpha: alpha}
		return m.Time(p+1) <= m.Time(p)+1e-12*seq &&
			m.Work(p+1) >= m.Work(p)-1e-12*seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: for α=0 the task is perfectly parallel: T(p) = T(1)/p.
func TestPropertyPerfectlyParallel(t *testing.T) {
	f := func(pRaw uint8) bool {
		p := int(pRaw)%100 + 1
		m := Model{SeqTime: 50, Alpha: 0}
		return math.Abs(m.Time(p)-50/float64(p)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCostsFromGraph(t *testing.T) {
	g := dag.NewGraph(2, 0)
	g.AddTask(dag.Task{M: 1e7, A: 100, Alpha: 0.1}) // 1e9 ops
	g.AddVirtual("v")
	c := NewCosts(g, 2.0) // 2 GFlop/s
	if got := c.Time(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("T(0, 1) = %g, want 0.5", got)
	}
	if got := c.Time(1, 64); got != 0 {
		t.Errorf("virtual task time = %g, want 0", got)
	}
	if c.N() != 2 {
		t.Errorf("N = %d, want 2", c.N())
	}
}

func TestTotalWork(t *testing.T) {
	g := dag.NewGraph(3, 0)
	g.AddTask(dag.Task{M: 1e7, A: 100, Alpha: 0}) // seq 0.5s at 2GFlops
	g.AddTask(dag.Task{M: 1e7, A: 100, Alpha: 0})
	g.AddVirtual("v")
	c := NewCosts(g, 2.0)
	// α=0 ⇒ work independent of p: 0.5 + 0.5
	got := c.TotalWork([]int{4, 8, 1})
	if math.Abs(got-1.0) > 1e-12 {
		t.Errorf("TotalWork = %g, want 1.0", got)
	}
}

func TestTaskOpsAndBytes(t *testing.T) {
	task := dag.Task{M: 2e6, A: 64}
	if got := task.Ops(); got != 128e6 {
		t.Errorf("Ops = %g, want 1.28e8", got)
	}
	// Communicated volume equals m (§II-A), not the 8·m-byte dataset size.
	if got := task.Bytes(); got != 2e6 {
		t.Errorf("Bytes = %g, want 2e6", got)
	}
	v := dag.Task{M: 2e6, A: 64, Virtual: true}
	if v.Ops() != 0 || v.Bytes() != 0 {
		t.Error("virtual task should have zero ops/bytes")
	}
}

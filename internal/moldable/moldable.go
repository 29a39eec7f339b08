// Package moldable implements the moldable data-parallel task cost model of
// §II-A of the paper.
//
// A task operates on a dataset of m double-precision elements and performs
// a·m floating point operations (a ∈ [64, 512], capturing multi-iteration
// kernels such as stencils on a √m×√m domain). Parallel execution follows
// Amdahl's law with a non-parallelizable fraction α ∈ [0, 0.25]:
//
//	T(p) = T(1) · (α + (1−α)/p)
//
// The model is monotonically decreasing in p, while the work ω(p) = p·T(p)
// is monotonically non-decreasing — adding processors always shortens the
// task but always costs resources, which is precisely the trade-off the
// RATS time-cost strategy arbitrates.
package moldable

import "repro/internal/dag"

// Dataset bounds from the paper: processors have at most 1 GByte of memory,
// so m ≤ 121e6 double-precision elements (968 MB); datasets below 4e6
// elements should be aggregated with neighbours instead of scheduled.
const (
	BytesPerElement = 8
	MinElements     = 4e6
	MaxElements     = 121e6
	MinOpsFactor    = 64  // 2^6
	MaxOpsFactor    = 512 // 2^9
	MaxAlpha        = 0.25
)

// Model is the Amdahl execution-time model of one task.
type Model struct {
	SeqTime float64 // T(1), seconds
	Alpha   float64 // non-parallelizable fraction in [0,1]
}

// Time returns T(p), the execution time on p processors. Time(0) is defined
// as +Inf-free: p is clamped to 1 so callers never divide by zero.
func (m Model) Time(p int) float64 {
	if p < 1 {
		p = 1
	}
	return m.SeqTime * (m.Alpha + (1-m.Alpha)/float64(p))
}

// Work returns ω(p) = p · T(p), the resource consumption of the task.
func (m Model) Work(p int) float64 {
	if p < 1 {
		p = 1
	}
	return float64(p) * m.Time(p)
}

// Costs binds a task graph to a processor speed, pre-computing the Amdahl
// model of every task. It is the single cost oracle shared by the
// allocation procedures, the mapping procedures and the simulator, so all
// of them agree on T(t, p) exactly.
//
// On heterogeneous clusters the construction speed is the planning speed
// (the slowest node); TimeOn/WorkOn answer the same Amdahl model
// re-based to the speed of a concrete processor set. TimeOn at the
// construction speed is bit-identical to Time — both evaluate
// t.Ops()/(speed·1e9) and the same Model.Time expression — so routing a
// uniform cluster through either path yields the same floats.
type Costs struct {
	models []Model
	ops    []float64 // raw per-task op counts, for re-basing to another speed
}

// NewCosts builds the cost oracle for graph g on processors running at
// speedGFlops·10⁹ floating point operations per second. Virtual tasks get a
// zero model.
func NewCosts(g *dag.Graph, speedGFlops float64) *Costs {
	c := &Costs{
		models: make([]Model, g.N()),
		ops:    make([]float64, g.N()),
	}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if t.Virtual {
			continue
		}
		c.ops[i] = t.Ops()
		c.models[i] = Model{
			SeqTime: t.Ops() / (speedGFlops * 1e9),
			Alpha:   t.Alpha,
		}
	}
	return c
}

// ModelOn returns the task's Amdahl model re-based to another node speed.
// At the construction speed it reproduces Model(task) bit-exactly.
func (c *Costs) ModelOn(task int, speedGFlops float64) Model {
	return Model{
		SeqTime: c.ops[task] / (speedGFlops * 1e9),
		Alpha:   c.models[task].Alpha,
	}
}

// TimeOn returns T(task, p) with every processor running at speedGFlops —
// the cost of the task on a set whose slowest member runs at that speed.
func (c *Costs) TimeOn(task, p int, speedGFlops float64) float64 {
	return c.ModelOn(task, speedGFlops).Time(p)
}

// WorkOn returns ω(task, p) = p·TimeOn(task, p, speedGFlops).
func (c *Costs) WorkOn(task, p int, speedGFlops float64) float64 {
	return c.ModelOn(task, speedGFlops).Work(p)
}

// Time returns T(task, p) in seconds.
func (c *Costs) Time(task, p int) float64 { return c.models[task].Time(p) }

// Work returns ω(task, p) = p·T(task, p).
func (c *Costs) Work(task, p int) float64 { return c.models[task].Work(p) }

// Model returns the underlying Amdahl model of a task.
func (c *Costs) Model(task int) Model { return c.models[task] }

// N returns the number of tasks covered by the oracle.
func (c *Costs) N() int { return len(c.models) }

// TotalWork returns Σ ω(t, alloc[t]) over non-virtual tasks — the "work"
// metric of Figures 3 and 7 (lower is lower resource consumption).
func (c *Costs) TotalWork(alloc []int) float64 {
	w := 0.0
	for t, p := range alloc {
		if c.models[t].SeqTime == 0 {
			continue
		}
		w += c.Work(t, p)
	}
	return w
}

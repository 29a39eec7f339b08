package rats

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/gen"
)

// TaskSpec describes one moldable task under the paper's §II-A cost model:
// the task operates on a dataset of Elements double-precision values,
// performs OpsFactor·Elements floating point operations, and parallelizes
// under Amdahl's law with serial fraction Alpha.
type TaskSpec struct {
	Elements  float64 // dataset size m, in double-precision elements
	OpsFactor float64 // a: total flop = a·m (the paper draws a in [64, 512])
	Alpha     float64 // non-parallelizable fraction, in [0, 1)
}

// DAG is a mixed-parallel application graph: a fluent single-goroutine
// builder until finalized by Build (or a first Schedule/ScheduleAll), and
// an immutable, concurrency-safe workload afterwards. Builder methods
// record the first construction error and return it from Build; calling a
// builder method on a finalized DAG panics.
type DAG struct {
	// Name labels the workload in results and reports. Generators set it;
	// it may be overwritten freely before the DAG is finalized.
	Name string

	g      *dag.Graph
	byName map[string]int

	err      error       // first builder error, surfaced by Build
	frozen   atomic.Bool // set once finalization starts
	once     sync.Once
	buildErr error // result of finalization
}

// NewDAG returns an empty DAG builder.
func NewDAG() *DAG {
	return &DAG{g: dag.NewGraph(8, 8), byName: map[string]int{}}
}

// wrap adopts a generator-produced (already normalized) graph.
func wrap(name string, g *dag.Graph) *DAG {
	d := &DAG{Name: name, g: g, byName: make(map[string]int, g.N())}
	for i := range g.Tasks {
		d.byName[g.Tasks[i].Name] = i
	}
	return d
}

// fail records the first builder error.
func (d *DAG) fail(format string, args ...any) *DAG {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	return d
}

func (d *DAG) mutable(op string) {
	if d.frozen.Load() {
		panic("rats: " + op + " called on a finalized DAG")
	}
}

// Task appends a moldable task. Names must be unique within the DAG;
// Elements and OpsFactor must be positive and Alpha in [0, 1) (checked by
// Build, for built and JSON-decoded DAGs alike).
func (d *DAG) Task(name string, spec TaskSpec) *DAG {
	d.mutable("Task")
	if name == "" {
		return d.fail("rats: task name must be non-empty")
	}
	if _, dup := d.byName[name]; dup {
		return d.fail("rats: duplicate task name %q", name)
	}
	id := d.g.AddTask(dag.Task{
		Name:  name,
		M:     spec.Elements,
		A:     spec.OpsFactor,
		Alpha: spec.Alpha,
	})
	d.byName[name] = id
	return d
}

// Edge adds a data dependence carrying the producer's full dataset (the
// paper's model: the communicated volume equals the dataset element count).
func (d *DAG) Edge(from, to string) *DAG {
	d.mutable("Edge")
	src, ok := d.byName[from]
	if !ok {
		return d.fail("rats: edge source %q is not a task", from)
	}
	return d.EdgeBytes(from, to, d.g.Tasks[src].Bytes())
}

// EdgeBytes adds a data dependence with an explicit payload in bytes,
// overriding the default full-dataset volume. A negative or non-finite
// payload fails Build.
func (d *DAG) EdgeBytes(from, to string, bytes float64) *DAG {
	d.mutable("EdgeBytes")
	src, ok := d.byName[from]
	if !ok {
		return d.fail("rats: edge source %q is not a task", from)
	}
	dst, ok := d.byName[to]
	if !ok {
		return d.fail("rats: edge target %q is not a task", to)
	}
	d.g.AddEdge(src, dst, bytes)
	return d
}

// Err returns the first builder error without finalizing the DAG.
func (d *DAG) Err() error { return d.err }

// Build finalizes the DAG: it normalizes the graph to a single entry and
// exit (adding zero-cost virtual connectors when needed), validates its
// structure and cost values, and freezes it. Build is idempotent; the
// first call decides the outcome. Schedule and ScheduleAll call it
// implicitly.
func (d *DAG) Build() error {
	d.once.Do(func() {
		d.frozen.Store(true)
		if d.err != nil {
			d.buildErr = d.err
			return
		}
		if d.g.N() == 0 {
			d.buildErr = dag.ErrEmpty
			return
		}
		d.g.Normalize()
		// Validate also warms the graph's topological-order memo, so every
		// traversal after this point is a pure read — the property the
		// ScheduleAll worker pool relies on.
		d.buildErr = d.g.Validate()
	})
	return d.buildErr
}

// TaskCount returns the number of real (non-virtual) tasks.
func (d *DAG) TaskCount() int { return d.g.RealTaskCount() }

// EdgeCount returns the number of dependence edges, including the
// zero-byte edges of virtual connectors added by normalization.
func (d *DAG) EdgeCount() int { return len(d.g.Edges) }

// MaxWidth returns the maximum task parallelism: the size of the largest
// precedence level, counting real tasks only.
func (d *DAG) MaxWidth() int { return d.g.MaxWidth() }

// WriteDOT renders the graph in Graphviz DOT format.
func (d *DAG) WriteDOT(w io.Writer) error { return d.g.WriteDOT(w) }

// MarshalJSON implements json.Marshaler with the task/edge schema shared
// with cmd/dagger.
func (d *DAG) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name  string     `json:"name,omitempty"`
		Graph *dag.Graph `json:"graph"`
	}{Name: d.Name, Graph: d.g})
}

// UnmarshalJSON implements json.Unmarshaler. The decoded DAG is a fresh
// builder: not yet finalized, with adjacency rebuilt from the edge list.
// Like every builder method, it must not run against a finalized DAG —
// that would mutate a graph concurrent schedulers may be reading — but
// being an error-returning interface it reports the misuse instead of
// panicking.
func (d *DAG) UnmarshalJSON(data []byte) error {
	if d.frozen.Load() {
		return fmt.Errorf("rats: UnmarshalJSON called on a finalized DAG")
	}
	var raw struct {
		Name  string     `json:"name"`
		Graph *dag.Graph `json:"graph"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.Graph == nil {
		return fmt.Errorf("rats: DAG JSON misses the graph field")
	}
	*d = DAG{Name: raw.Name, g: raw.Graph, byName: make(map[string]int, raw.Graph.N())}
	for i := range raw.Graph.Tasks {
		d.byName[raw.Graph.Tasks[i].Name] = i
	}
	return nil
}

// RandomSpec parameterizes the daggen-style random workload generator of
// the paper's evaluation (§IV-A, Table III).
type RandomSpec struct {
	N          int     // number of computation tasks
	Width      float64 // maximum parallelism, in (0, 1]
	Regularity float64 // uniformity of level sizes, in [0, 1]
	Density    float64 // edge probability between consecutive levels, in (0, 1]
	Jump       int     // jump-edge length; ≤ 1 means no jump edges
	Layered    bool    // layered graphs share one cost draw per level
	Seed       int64   // deterministic generator seed
}

// Random generates a random mixed-parallel application DAG. An invalid
// spec — N < 1, or Width, Regularity or Density outside the ranges
// RandomSpec gives (NaN and ±Inf included) — yields a DAG whose Build (and
// scheduling) fails with the cause.
func Random(spec RandomSpec) *DAG {
	kind := "irregular"
	if spec.Layered {
		kind = "layered"
	}
	name := fmt.Sprintf("%s(n=%d,seed=%d)", kind, spec.N, spec.Seed)
	// The negated range tests reject NaN as well.
	var bad string
	switch {
	case spec.N < 1:
		bad = fmt.Sprintf("N must be ≥ 1, got %d", spec.N)
	case !(spec.Width > 0 && spec.Width <= 1):
		bad = fmt.Sprintf("Width must be in (0, 1], got %g", spec.Width)
	case !(spec.Regularity >= 0 && spec.Regularity <= 1):
		bad = fmt.Sprintf("Regularity must be in [0, 1], got %g", spec.Regularity)
	case !(spec.Density > 0 && spec.Density <= 1):
		bad = fmt.Sprintf("Density must be in (0, 1], got %g", spec.Density)
	}
	if bad != "" {
		d := NewDAG()
		d.Name = name
		return d.fail("rats: RandomSpec.%s", bad)
	}
	return wrap(name, gen.Random(gen.RandomParams{
		N:          spec.N,
		Width:      spec.Width,
		Regularity: spec.Regularity,
		Density:    spec.Density,
		Jump:       spec.Jump,
		Layered:    spec.Layered,
		Seed:       spec.Seed,
	}))
}

// FFT generates the Fast Fourier Transform task graph over k data points
// (k must be a power of two ≥ 2), one of the paper's two HPC kernels.
func FFT(k int, seed int64) *DAG {
	name := fmt.Sprintf("fft(k=%d,seed=%d)", k, seed)
	if k < 2 || k&(k-1) != 0 {
		d := NewDAG()
		d.Name = name
		return d.fail("rats: FFT requires a power-of-two k ≥ 2, got %d", k)
	}
	return wrap(name, gen.FFT(k, seed))
}

// Strassen generates the 25-task Strassen matrix-multiplication graph, the
// paper's second HPC kernel.
func Strassen(seed int64) *DAG {
	return wrap(fmt.Sprintf("strassen(seed=%d)", seed), gen.Strassen(seed))
}

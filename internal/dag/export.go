package dag

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the graph in Graphviz DOT format. Virtual tasks are drawn
// as points; real tasks are labelled with their name and dataset size.
func (g *Graph) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph G {\n  rankdir=TB;\n  node [shape=box];\n")
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if t.Virtual {
			fmt.Fprintf(&b, "  t%d [shape=point, label=\"\"];\n", i)
			continue
		}
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("t%d", i)
		}
		fmt.Fprintf(&b, "  t%d [label=\"%s\\nm=%.3gM a=%.0f α=%.2f\"];\n",
			i, name, t.M/1e6, t.A, t.Alpha)
	}
	for _, e := range g.Edges {
		if e.Bytes > 0 {
			fmt.Fprintf(&b, "  t%d -> t%d [label=\"%.3g MB\"];\n", e.From, e.To, e.Bytes/1e6)
		} else {
			fmt.Fprintf(&b, "  t%d -> t%d [style=dashed];\n", e.From, e.To)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// jsonGraph is the serialization schema for graphs.
type jsonGraph struct {
	Tasks []Task `json:"tasks"`
	Edges []Edge `json:"edges"`
}

// MarshalJSON implements json.Marshaler.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonGraph{Tasks: g.Tasks, Edges: g.Edges})
}

// UnmarshalJSON implements json.Unmarshaler, rebuilding adjacency lists.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	*g = Graph{}
	for _, t := range jg.Tasks {
		// AddTask renumbers; keep the decoded ID so Validate can reject
		// one that does not match the task's position.
		g.Tasks[g.AddTask(t)].ID = t.ID
	}
	for _, e := range jg.Edges {
		if e.From < 0 || e.From >= g.N() || e.To < 0 || e.To >= g.N() {
			return fmt.Errorf("dag: edge %d has out-of-range endpoints (%d,%d)", e.ID, e.From, e.To)
		}
		g.AddEdge(e.From, e.To, e.Bytes)
	}
	return nil
}

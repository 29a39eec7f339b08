package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// wireResult is the part of the rats.result/v1 document the checks read.
type wireResult struct {
	Schema     string  `json:"schema"`
	Cluster    string  `json:"cluster"`
	Strategy   string  `json:"strategy"`
	Makespan   float64 `json:"makespan"`
	Placements []struct {
		Task   int     `json:"task"`
		Name   string  `json:"name"`
		Procs  []int   `json:"procs"`
		Start  float64 `json:"start"`
		Finish float64 `json:"finish"`
	} `json:"placements"`
}

// check verifies that doc is a valid schedule of req: every real task
// placed once, in order, on distinct processors of the cluster, no
// processor running two tasks at once, every task starting after its
// predecessors finish, and a makespan equal to the last finish.
func check(req *request, doc []byte) error {
	var r wireResult
	if err := json.Unmarshal(doc, &r); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	if r.Schema != "rats.result/v1" {
		return fmt.Errorf("result schema %q", r.Schema)
	}
	if r.Cluster != req.target.name || r.Strategy != req.strategy {
		return fmt.Errorf("result for %s/%s, asked %s/%s", r.Cluster, r.Strategy, req.target.name, req.strategy)
	}
	var real []int // graph index of each real task, in order
	for i, t := range req.g.Tasks {
		if !t.Virtual {
			real = append(real, i)
		}
	}
	if len(r.Placements) != len(real) {
		return fmt.Errorf("%d placements for %d tasks", len(r.Placements), len(real))
	}
	// eps absorbs float rounding in the replay's event times.
	eps := 1e-9 * math.Max(1, r.Makespan)
	n := len(req.g.Tasks)
	placed := make([]bool, n)
	start := make([]float64, n)
	finish := make([]float64, n)
	type busy struct{ start, finish float64 }
	perProc := map[int][]busy{}
	procs := req.target.procs
	last := 0.0
	for k, p := range r.Placements {
		i := real[k]
		if p.Task != i || p.Name != req.g.Tasks[i].Name {
			return fmt.Errorf("placement %d is task %d %q, want %d %q", k, p.Task, p.Name, i, req.g.Tasks[i].Name)
		}
		if len(p.Procs) == 0 || len(p.Procs) > procs {
			return fmt.Errorf("task %d on %d processors of %d", i, len(p.Procs), procs)
		}
		seen := map[int]bool{}
		for _, q := range p.Procs {
			if q < 0 || q >= procs || seen[q] {
				return fmt.Errorf("task %d: processor %d out of range or repeated", i, q)
			}
			seen[q] = true
			perProc[q] = append(perProc[q], busy{p.Start, p.Finish})
		}
		if !(p.Start >= 0 && p.Finish > p.Start) || math.IsInf(p.Finish, 0) {
			return fmt.Errorf("task %d runs over [%g, %g]", i, p.Start, p.Finish)
		}
		placed[i] = true
		start[i], finish[i] = p.Start, p.Finish
		last = math.Max(last, p.Finish)
	}
	if math.Abs(r.Makespan-last) > eps {
		return fmt.Errorf("makespan %g, last finish %g", r.Makespan, last)
	}
	// Edges from the virtual entry or to the virtual exit carry no data
	// and order no real task, so only edges between placed tasks count.
	for _, e := range req.g.Edges {
		if placed[e.From] && placed[e.To] && start[e.To] < finish[e.From]-eps {
			return fmt.Errorf("task %d starts at %g before its predecessor %d finishes at %g",
				e.To, start[e.To], e.From, finish[e.From])
		}
	}
	for q, bs := range perProc {
		sort.Slice(bs, func(i, j int) bool { return bs[i].start < bs[j].start })
		for i := 1; i < len(bs); i++ {
			if bs[i].start < bs[i-1].finish-eps {
				return fmt.Errorf("processor %d double-booked at %g", q, bs[i].start)
			}
		}
	}
	return nil
}

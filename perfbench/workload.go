package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/rats"
)

// graph is the part of the rats DAG wire format the checks read. Virtual
// tasks are the zero-cost entry and exit connectors the generators add;
// results place real tasks only.
type graph struct {
	Tasks []struct {
		Name    string
		Virtual bool
	}
	Edges []struct{ From, To int }
}

// request is one distinct schedule request of a workload's pool, kept
// alongside its encoded body so answers can be checked against it.
type request struct {
	target   target
	strategy string
	g        graph
	body     []byte
}

// workload is a traffic mix over a pool of distinct requests generated
// from the run's seed. With rate > 0 it is an open loop: requests arrive
// at that mean rate whether or not earlier ones have been answered, and at
// most clients of them are in flight. With rate 0 it is a closed loop of
// clients, each sending its next request once the previous one is answered.
type workload struct {
	name    string
	clients int
	rate    float64 // open-loop arrivals per second; 0 for a closed loop
	pool    func(rng *rand.Rand) []request
}

// target is a cluster requests are sent to: a preset named in the request,
// or, with a spec, a custom cluster sent in full as its cluster_spec.
type target struct {
	name  string
	procs int
	spec  map[string]any
}

// fields returns the request members that select the target.
func (t target) fields() map[string]any {
	if t.spec != nil {
		return map[string]any{"cluster_spec": t.spec}
	}
	return map[string]any{"cluster": t.name}
}

var strategies = []string{"baseline", "delta", "time-cost"}

var workloads = []workload{
	{
		// Independent users submitting the paper's applications, so an open
		// loop: Poisson arrivals at 100 requests/s with at most 16 in
		// flight, the rate and concurrency of the README's loadgen example.
		// The DAGs are the evaluation's (§IV-A, Table III): four random DAGs
		// of 25 and of 50 tasks per cell of the table, and FFT kernels, on
		// the paper's grillon and grelon and on a heterogeneous grelon sent
		// as a cluster_spec.
		name:    "paper",
		clients: 16,
		rate:    100,
		pool: func(rng *rand.Rand) []request {
			dags := append(tableIII(rng, 25, 4), tableIII(rng, 50, 4)...)
			for _, k := range []int{4, 8, 16, 4, 8, 16} {
				dags = append(dags, rats.FFT(k, rng.Int64()))
			}
			return assign(dags, []target{preset("grillon", 47), preset("grelon", 120),
				hetCluster("grelon-het-spec", 120, 24, 3, 3.185, 10*gigabit, gigabit)})
		},
	},
	{
		// Table III's 100-task cells and FFT(16), FFT(32) on the 512- and
		// 1024-node clusters and a heterogeneous 512-node cluster_spec, where
		// allocation, the estimator and the replay's flow network dominate a
		// request. A synthetic saturating load: a closed loop of two clients,
		// one per batch executor of ratsd on a two-core machine, keeps the
		// server busy without a queue, so latency is the engines' service
		// time and throughput their capacity.
		name:    "big",
		clients: 2,
		pool: func(rng *rand.Rand) []request {
			dags := tableIII(rng, 100, 3)
			for _, k := range []int{16, 32, 16, 32} {
				dags = append(dags, rats.FFT(k, rng.Int64()))
			}
			return assign(dags, []target{preset("big512", 512), preset("big1024", 1024),
				hetCluster("big512-het-spec", 512, 32, 8, 8, 40*gigabit, 10*gigabit)})
		},
	},
	{
		// Random DAGs of one to four tasks on small clusters: scheduling is
		// nearly free, so HTTP, decoding, batching and encoding dominate. The
		// closed loop of 8 clients is loadgen's default mode.
		name:    "tiny",
		clients: 8,
		pool: func(rng *rand.Rand) []request {
			var dags []*rats.DAG
			for i := 0; i < 48; i++ {
				dags = append(dags, rats.Random(rats.RandomSpec{
					N: 1 + i%4, Width: 0.5, Regularity: 0.2, Density: 0.8, Layered: i%8 < 4, Seed: rng.Int64(),
				}))
			}
			return assign(dags, []target{preset("chti", 20), preset("grillon", 47)})
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tableIII draws reps n-task DAGs per cell of the paper's Table III:
// width 0.2, 0.5 or 0.8, regularity and density 0.2 or 0.8, layered or
// irregular with jump 1, 2 or 4.
func tableIII(rng *rand.Rand, n, reps int) []*rats.DAG {
	var out []*rats.DAG
	for _, w := range []float64{0.2, 0.5, 0.8} {
		for _, r := range []float64{0.2, 0.8} {
			for _, d := range []float64{0.2, 0.8} {
				for _, j := range []int{0, 1, 2, 4} { // 0: layered
					for i := 0; i < reps; i++ {
						out = append(out, rats.Random(rats.RandomSpec{
							N: n, Width: w, Regularity: r, Density: d, Jump: j, Layered: j == 0, Seed: rng.Int64(),
						}))
					}
				}
			}
		}
	}
	return out
}

const gigabit = 1e9 / 8 // bytes per second

func preset(name string, procs int) target { return target{name: name, procs: procs} }

// hetCluster describes a cluster extended with an older generation of
// hardware, in the shape of ratsd's grelon-het and big512-het presets: the
// cabinets from old on hold half-speed nodes on half-gigabit private links
// and reach the backbone over slower uplinks. Sent as a cluster_spec, it
// is parsed and built by the server on every request.
func hetCluster(name string, procs, cabinet, old int, speed, backbone, oldBackbone float64) target {
	speeds := make([]float64, procs)
	links := make([]float64, procs)
	for i := range speeds {
		speeds[i], links[i] = speed, gigabit
		if i/cabinet >= old {
			speeds[i], links[i] = speed/2, gigabit/2
		}
	}
	uplinks := make([]float64, procs/cabinet)
	for k := range uplinks {
		uplinks[k] = backbone
		if k >= old {
			uplinks[k] = oldBackbone
		}
	}
	return target{name: name, procs: procs, spec: map[string]any{
		"name": name, "procs": procs, "speed_gflops": speed, "cabinet_size": cabinet,
		"uplink_bandwidth": backbone, "node_speeds": speeds, "node_bandwidths": links,
		"uplink_bandwidths": uplinks,
	}}
}

// assign gives the DAGs the targets and the strategies in turn, so every
// (target, strategy) pair gets a share of each kind of DAG, and encodes
// the requests.
func assign(dags []*rats.DAG, targets []target) []request {
	var out []request
	for i, d := range dags {
		t := targets[i%len(targets)]
		st := strategies[i/len(targets)%len(strategies)]
		d.Name = fmt.Sprintf("dag%d", i)
		blob, err := json.Marshal(d)
		if err != nil {
			panic(err) // generated DAGs hold finite floats only
		}
		req := t.fields()
		req["strategy"] = st
		req["dag"] = json.RawMessage(blob)
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		var wire struct {
			Graph graph `json:"graph"`
		}
		if err := json.Unmarshal(blob, &wire); err != nil {
			panic(err)
		}
		out = append(out, request{target: t, strategy: st, g: wire.Graph, body: body})
	}
	return out
}

package ablate

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/redist"
)

// microOptions is a seconds-scale ablation: one tiny class on chti, the
// naive algorithms, and three configurations exercising the delta
// baseline, a knob bundle, and the forced-replay scratch path.
func microOptions() Options {
	scens := []exp.Scenario{
		{Kind: exp.Layered, Params: gen.RandomParams{N: 25, Width: 0.5, Density: 0.5, Regularity: 0.8, Jump: 1, Layered: true}},
		{Kind: exp.FFT, K: 4},
	}
	return Options{
		Classes: []Class{{Name: "micro", Cluster: platform.Chti(), Scens: scens}},
		Configs: []Config{Reference(), Fast(), {Name: "scratch128", Knobs: Knobs{Align: redist.AlignHungarian, ScratchThreshold: 128}}},
		Algos:   exp.NaiveAlgos(),
	}
}

func TestRunMicro(t *testing.T) {
	rep, err := Run(microOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != 1 {
		t.Fatalf("classes = %d, want 1", len(rep.Classes))
	}
	c := rep.Classes[0]
	if len(c.Configs) != 3 {
		t.Fatalf("configs = %d, want 3", len(c.Configs))
	}
	ref := c.Configs[0]
	if ref.Name != "reference" {
		t.Fatalf("first config = %q, want reference", ref.Name)
	}
	if ref.MaxAbsDeltaPct != 0 || ref.ChangedSchedules != 0 || ref.MeanDeltaPct != 0 {
		t.Errorf("reference deltas must be zero: %+v", ref)
	}
	if ref.Runs != 2*3 {
		t.Errorf("reference runs = %d, want 6", ref.Runs)
	}
	if ref.FreshReplays == 0 || ref.MapP50Ns <= 0 || ref.MapP99Ns < ref.MapP50Ns {
		t.Errorf("reference stats implausible: %+v", ref)
	}
	if ref.Counters.CandEvals == 0 || ref.Counters.MemoProbes == 0 {
		t.Errorf("reference counters empty: %+v", ref.Counters)
	}
	fast := c.Configs[1]
	if fast.MaxAbsDeltaPct > 0.5 {
		t.Errorf("fast profile max |Δ| = %.3f%%, beyond the 0.5%% contract", fast.MaxAbsDeltaPct)
	}
	// The scratch configuration replays at a distinct threshold, so its
	// replays cannot be memo hits from the reference — and the threshold
	// is latency-only, so its makespans must match exactly.
	scratch := c.Configs[2]
	if scratch.FreshReplays == 0 {
		t.Errorf("scratch config reused reference replays; want forced fresh replays")
	}
	if scratch.MaxAbsDeltaPct != 0 || scratch.ChangedSchedules != 0 {
		t.Errorf("scratch threshold changed outcomes: maxΔ %.4f%%, changed %d",
			scratch.MaxAbsDeltaPct, scratch.ChangedSchedules)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(round.Classes) != 1 || round.Classes[0].Configs[1].Name != "fast" {
		t.Errorf("round-tripped report lost structure")
	}
	buf.Reset()
	rep.WriteSummary(&buf)
	if buf.Len() == 0 {
		t.Errorf("summary is empty")
	}
}

// TestRunRejectsMissingReference pins the configs contract: deltas are
// measured against configs[0], which must be the reference.
func TestRunRejectsMissingReference(t *testing.T) {
	o := microOptions()
	o.Configs = []Config{Fast()}
	if _, err := Run(o); err == nil {
		t.Fatal("Run accepted a sweep without the leading reference config")
	}
}

// TestConfigsShape pins the full sweep's invariants without running it.
func TestConfigsShape(t *testing.T) {
	cfgs := Configs()
	if cfgs[0].Name != "reference" {
		t.Errorf("Configs()[0] = %q, want reference", cfgs[0].Name)
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		if names[c.Name] {
			t.Errorf("duplicate config name %q", c.Name)
		}
		names[c.Name] = true
	}
	for _, want := range []string{"fast", "align-greedy", "auto-cap16", "scratch128"} {
		if !names[want] {
			t.Errorf("Configs() missing %q", want)
		}
	}
	for _, smoke := range []bool{false, true} {
		for _, cl := range Classes(smoke) {
			if len(cl.Scens) == 0 {
				t.Errorf("class %s (smoke=%v) has no scenarios", cl.Name, smoke)
			}
			if cl.Cluster == nil {
				t.Errorf("class %s (smoke=%v) has no cluster", cl.Name, smoke)
			}
		}
	}
}

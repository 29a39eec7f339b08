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
// baseline, the shipped default, and a schedule-changing mode whose
// replays cannot come from the reference's memo.
func microOptions() Options {
	scens := []exp.Scenario{
		{Kind: exp.Layered, Params: gen.RandomParams{N: 25, Width: 0.5, Density: 0.5, Regularity: 0.8, Jump: 1, Layered: true}},
		{Kind: exp.FFT, K: 8}, // on chti, greedy alignment changes one of its schedules
	}
	return Options{
		Classes: []Class{{Name: "micro", Cluster: platform.Chti(), Scens: scens}},
		Configs: []Config{Reference(), Fast(), {Name: "align-greedy", Align: redist.AlignGreedy}},
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
		t.Errorf("fast (auto alignment) max |Δ| = %.3f%%, beyond the 0.5%% contract", fast.MaxAbsDeltaPct)
	}
	// Greedy alignment changes a schedule the reference replayed, so the
	// changed signature must be replayed fresh, not served from the memo.
	greedy := c.Configs[2]
	if greedy.ChangedSchedules == 0 || greedy.FreshReplays == 0 || greedy.FreshReplays > greedy.ChangedSchedules {
		t.Errorf("align-greedy: changed %d, fresh replays %d; want 0 < fresh ≤ changed",
			greedy.ChangedSchedules, greedy.FreshReplays)
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
	for _, want := range []string{"reference", "align-none", "align-greedy", "fast"} {
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

package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCountersAddEach(t *testing.T) {
	a := Counters{CandEvals: 10, DedupSkips: 4, SolvesScratch: 3}
	b := Counters{CandEvals: 5, DedupSkips: 1, AlignExact: 7}
	a.Add(&b)
	if a.CandEvals != 15 || a.DedupSkips != 5 || a.AlignExact != 7 || a.SolvesScratch != 3 {
		t.Fatalf("Add: got %+v", a)
	}

	// Each must visit every struct field exactly once, in declaration
	// order, under its JSON tag name.
	var names []string
	total := uint64(0)
	a.Each(func(name string, v uint64) {
		names = append(names, name)
		total += v
	})
	rt := reflect.TypeOf(a)
	if len(names) != rt.NumField() {
		t.Fatalf("Each visited %d fields, struct has %d", len(names), rt.NumField())
	}
	for i, name := range names {
		tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if name != tag {
			t.Errorf("field %d: Each said %q, tag is %q", i, name, tag)
		}
		if tag == "" {
			t.Errorf("field %s has no json tag", rt.Field(i).Name)
		}
	}
	if want := uint64(15 + 5 + 7 + 3); total != want {
		t.Fatalf("Each sum = %d, want %d", total, want)
	}
}

func TestCountersRates(t *testing.T) {
	c := Counters{
		CandEvals: 30, DedupSkips: 10,
		SolvesFull: 1, SolvesIncremental: 3, SolvesScratch: 12,
	}
	if got := c.DedupSkipPct(); got != 25 {
		t.Errorf("DedupSkipPct = %v, want 25", got)
	}
	if got := c.ScratchSolvePct(); got != 75 {
		t.Errorf("ScratchSolvePct = %v, want 75", got)
	}
	var zero Counters
	if zero.DedupSkipPct() != 0 || zero.ScratchSolvePct() != 0 {
		t.Errorf("zero counters must report 0%% rates, not NaN")
	}
}

func TestTracerNilNoop(t *testing.T) {
	var tr *Tracer
	start := tr.Begin()
	tr.End(start, "cat", "name", 1, 2) // must not panic
	tr.Reset()
	if tr.Spans() != nil || tr.Total() != 0 {
		t.Fatal("nil tracer must report empty state")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.End(int64(i), "c", "s", int64(i), 0)
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	if evicted := tr.Total() - uint64(len(spans)); evicted != 6 {
		t.Fatalf("evicted %d spans, want 6", evicted)
	}
	// Newest 4 survive, oldest first.
	for i, sp := range spans {
		if want := int64(6 + i); sp.Arg1 != want {
			t.Errorf("span %d: Arg1 = %d, want %d", i, sp.Arg1, want)
		}
	}

	tr.Reset()
	if tr.Total() != 0 || len(tr.Spans()) != 0 {
		t.Fatal("Reset must empty the ring")
	}
}

func TestTracerRecordsDurations(t *testing.T) {
	tr := NewTracer(8)
	start := tr.Begin()
	tr.End(start, "map", "place", 42, 3)
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	sp := spans[0]
	if sp.Cat != "map" || sp.Name != "place" || sp.Arg1 != 42 || sp.Arg2 != 3 {
		t.Fatalf("span = %+v", sp)
	}
	if sp.Dur < 0 {
		t.Fatalf("negative duration %d", sp.Dur)
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := tr.Begin()
				tr.End(s, "race", "span", int64(g), int64(i))
			}
		}(g)
	}
	wg.Wait()
	if tr.Total() != 800 {
		t.Fatalf("Total = %d, want 800", tr.Total())
	}
	if len(tr.Spans()) != 64 {
		t.Fatalf("retained %d, want ring capacity 64", len(tr.Spans()))
	}
}

func TestChromeTraceJSON(t *testing.T) {
	tr := NewTracer(8)
	tr.End(1000, "alloc", "grant", 5, 12)
	tr.End(2000, "map", "place", 7, 3)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Cat  string           `json:"cat"`
			Ph   string           `json:"ph"`
			TS   float64          `json:"ts"`
			PID  int              `json:"pid"`
			TID  int              `json:"tid"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid trace JSON: %v", err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("got %d events", len(out.TraceEvents))
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event phase %q, want X", ev.Ph)
		}
		if ev.PID != 2 {
			t.Errorf("event pid %d, want 2 (scheduler timeline)", ev.PID)
		}
	}
	if out.TraceEvents[0].TID == out.TraceEvents[1].TID {
		t.Error("distinct categories must land on distinct tids")
	}
	if out.TraceEvents[1].Args["arg1"] != 7 {
		t.Errorf("args lost: %+v", out.TraceEvents[1].Args)
	}
}

func TestTracerRecordNoAllocs(t *testing.T) {
	tr := NewTracer(16)
	allocs := testing.AllocsPerRun(100, func() {
		s := tr.Begin()
		tr.End(s, "cat", "name", 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %v per span, want 0", allocs)
	}
}

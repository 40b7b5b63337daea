package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sched"
)

// exportedEvent mirrors the Chrome trace-event shape for assertions.
type exportedEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func TestWriteTraceNilRecorder(t *testing.T) {
	var r *Recorder
	if err := r.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil recorder exported without error")
	}
}

func TestWriteTracePerfettoShape(t *testing.T) {
	r := New(0)
	i0 := r.NewInstance("prefillonly")
	i1 := r.NewInstance("prefillonly")
	r.Submit(1.0, "affinity", 7, sched.ClassInteractive)
	r.Route(1.0, "affinity", 7, sched.ClassInteractive, 1, 64, 0.25)
	i1.Queue(7, sched.ClassInteractive, 1.0, 1.25)
	i1.Exec(7, sched.ClassInteractive, 1.25, 2.0, 64, 0.25)
	i1.Stage("pass-stage0", 7, sched.ClassInteractive, 1.25, 1.5)
	r.Reject(2.0, "backlog", 8, sched.ClassBatch, 0, 9, 8)
	r.LoadGauge(2.0, 0, 3, 4.5)
	r.PoolGauge(2.0, 2, 1)
	r.ColdStart(2.0, 0.5, "coldstart", 3)
	_ = i0

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents     []exportedEvent `json:"traceEvents"`
		DisplayTimeUnit string          `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	var metaNames, complete, instants, counters int
	var sawQueue, sawExec *exportedEvent
	for idx := range file.TraceEvents {
		ev := &file.TraceEvents[idx]
		switch ev.Ph {
		case "M":
			metaNames++
		case "X":
			complete++
			if ev.Dur == nil {
				t.Fatalf("complete event %q has no dur", ev.Name)
			}
			switch ev.Name {
			case "queue":
				sawQueue = ev
			case "exec":
				sawExec = ev
			}
		case "i":
			instants++
		case "C":
			counters++
		}
	}
	// process_name + one thread_name for the router + one per instance.
	if metaNames != 4 {
		t.Fatalf("metadata events = %d, want 4", metaNames)
	}
	if complete < 4 { // queue, exec, stage, coldstart
		t.Fatalf("complete spans = %d, want >= 4", complete)
	}
	if instants != 3 { // submit, route, reject
		t.Fatalf("instants = %d, want 3", instants)
	}
	if counters != 2 { // load + pool gauges
		t.Fatalf("counters = %d, want 2", counters)
	}
	if sawQueue == nil || sawExec == nil {
		t.Fatal("queue/exec spans missing from export")
	}
	// Sim seconds render as microseconds; instance i is thread i+1 (the
	// router owns thread 0).
	if sawExec.TS != 1.25e6 || *sawExec.Dur != 0.75e6 {
		t.Fatalf("exec ts/dur = %v/%v, want 1.25e6/0.75e6", sawExec.TS, *sawExec.Dur)
	}
	if sawExec.TID != int(i1.id)+1 {
		t.Fatalf("exec tid = %d, want %d", sawExec.TID, i1.id+1)
	}
	// Queue end must meet exec start: full attribution with no gap.
	if got := sawQueue.TS + *sawQueue.Dur; got != sawExec.TS {
		t.Fatalf("queue ends at %v but exec starts at %v", got, sawExec.TS)
	}
}

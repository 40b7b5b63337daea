package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	prefillonly "repro"
)

// benchSpec is the part of BENCHMARK.json the command must agree with.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func specOf(defs []metricDef) []specMetric {
	out := make([]specMetric, len(defs))
	for i, d := range defs {
		out[i] = specMetric{d.name, d.unit}
	}
	return out
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, ours)
	}
	if got := specOf(endToEnd); !reflect.DeepEqual(s.EndToEnd, got) {
		t.Errorf("BENCHMARK.json end_to_end %v, command reports %v", s.EndToEnd, got)
	}
	if got := specOf(perLayer); !reflect.DeepEqual(s.PerLayer, got) {
		t.Errorf("BENCHMARK.json per_layer %v, command reports %v", s.PerLayer, got)
	}
}

// TestWorkloads runs every workload, untraced and traced, at a small
// fraction of its input size through the code the command runs: the
// correctness checks must pass, every metric must be reported with its
// unit, and a traced run must produce a loadable trace.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := w.run(runConfig{seed: 1, seconds: 0.1, trace: traced, scale: 0.01})
				if err != nil {
					t.Fatal(err)
				}
				res, err := result(rep, traced)
				if err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s not reported", d.name)
					case v.Unit != d.unit:
						t.Errorf("%s in %q, want %q", d.name, v.Unit, d.unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", d.name, v.Value)
					}
				}
				if res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				if !traced {
					for _, k := range []string{"setup_s", "req_per_s", "lat_p50_ms"} {
						if res.Metrics[k].Value <= 0 {
							t.Errorf("%s = %v, want > 0", k, res.Metrics[k].Value)
						}
					}
					return
				}
				path := filepath.Join(t.TempDir(), "trace.json")
				if err := rep.spans.write(path, map[string]any{"workload": w.name}); err != nil {
					t.Fatal(err)
				}
				checkTrace(t, path)
			})
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			spans++
			if ev.Dur < 0 {
				t.Errorf("span %s has negative duration", ev.Name)
			}
		}
	}
	if spans == 0 {
		t.Error("trace has no spans")
	}
}

// saturation is the fleet's throughput with every request offered at
// once: completed requests over the span from the first arrival to the
// last finish, in simulated requests per second.
func saturation(t *testing.T, ds *prefillonly.Dataset, maxInput int) float64 {
	t.Helper()
	s, err := prefillonly.NewSimulation(fleetConfig(maxInput))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitDataset(ds, 1e9, 1); err != nil {
		t.Fatal(err)
	}
	recs := s.Run()
	if len(recs) != len(ds.Requests) {
		t.Fatalf("%d of %d requests completed", len(recs), len(ds.Requests))
	}
	first, last := math.Inf(1), 0.0
	for _, r := range recs {
		first, last = min(first, r.Arrival), max(last, r.Finish)
	}
	return float64(len(recs)) / (last - first)
}

// TestFleetRates is the measurement the fleet workloads' rates rest on:
// each is 0.9 of the fleet's saturation rate, median over seeds 1–10 at
// full size. The simulation is deterministic, so only a change to the
// simulated system moves it.
func TestFleetRates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twenty full-size simulations")
	}
	for _, c := range []struct {
		name     string
		dataset  func(int64, float64) *prefillonly.Dataset
		maxInput int
		qps      float64
	}{
		{"prefix-reuse", prefixDataset, prefixMaxInput, prefixQPS},
		{"long-unique", longDataset, longMaxInput, longQPS},
	} {
		var sat []float64
		for seed := int64(1); seed <= 10; seed++ {
			sat = append(sat, saturation(t, c.dataset(seed, 1), c.maxInput))
		}
		load := c.qps / median(sat)
		t.Logf("%s: saturation %.4g req/s (seeds 1–10 range %.4g–%.4g); %.4g req/s is %.3f of it",
			c.name, median(sat), quantile(sat, 0), quantile(sat, 1), c.qps, load)
		if math.Abs(load-0.9) > 0.02 {
			t.Errorf("%s runs at %.3f of saturation, want 0.9", c.name, load)
		}
	}
}

var spinSink uint64

// TestProfileAttribution checks the CPU profile decoding end to end: a
// busy loop in this package is charged to loadgen.
func TestProfileAttribution(t *testing.T) {
	cpu, err := profiled(func() error {
		x := uint64(1)
		for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
			for i := 0; i < 1e5; i++ {
				x = x*31 + uint64(i)
			}
		}
		spinSink = x
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range cpu {
		total += v
	}
	if total == 0 || cpu["loadgen"] < total/2 {
		t.Errorf("loadgen charged %.2fs of %.2fs profiled: %v", cpu["loadgen"], total, cpu)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/kvcache.(*Manager).InsertH", "repro/internal/engine.(*lifecycle).finish"}, "kvcache"},
		{[]string{"unicode.IsSpace", "repro/internal/tokenizer.Pieces"}, "tokenizer"},
		{[]string{"encoding/json.(*decodeState).object", "repro/internal/server.(*Handler).completions"}, "server"},
		{[]string{"repro/internal/ringbuf.(*Ring[...]).Push", "repro/internal/sched.(*FIFO).Enqueue"}, "other"},
		{[]string{"repro.(*Simulation).Run"}, "other"},
		{[]string{"net/http.(*conn).serve"}, "runtime"},
		{[]string{"encoding/json.Unmarshal", "main.send"}, "loadgen"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// Command benchmark measures the repository end to end on four workloads
// and, with --trace 1, attributes the cost to its layers.
//
//	benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
//
// It drives only the entry points users call (prefillonly.NewSimulation →
// SubmitDataset → Run, experiments.ChaosRun, and prefillonly.NewServer's
// Handler on a loopback httptest server), checks every output, prints one
// "name value unit" line per metric and, as its last line, a JSON object
// {"correct", "attempted", "failed", "metrics"}. A failed check exits
// non-zero before any metric is printed. README.md describes the metrics
// and why each workload exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef is a metric's name and unit, as listed in BENCHMARK.json
// (benchmark_test.go keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every run without --trace
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "req/s"},
	{"cpu_ms_per_req", "ms"},
	{"heap_live_mib", "MiB"},
	{"lat_p50_ms", "ms"},
}

// layers are the buckets CPU profile samples are charged to: the repo's
// modules, "other" for its remaining packages (facade, experiments,
// workload, ringbuf, trace, ...), "runtime" for samples with no repo or
// benchmark frame, and "loadgen" for the benchmark's own code.
var layers = []string{
	"graph", "kvcache", "sched", "jct", "engine", "core", "router", "autoscale",
	"chaos", "sim", "server", "tokenizer", "metrics", "other", "runtime", "loadgen",
}

// perLayer is what a --trace 1 run reports.
var perLayer = append(layerCPUDefs(), []metricDef{
	{"kvcache.hash_ns_per_token", "ns"},
	{"kvcache.inserted_blocks", "count"},
	{"kvcache.evicted_blocks", "count"},
	{"kvcache.hit_token_share", "ratio"},
	{"sched.queue_wait_p50_s", "sim-s"},
	{"sim.jct_p50_s", "sim-s"},
	{"sim.jct_p99_s", "sim-s"},
	{"router.balance_ratio", "ratio"},
	{"router.rejects", "count"},
	{"graph.estimate_ns_per_call", "ns"},
	{"autoscale.scale_ups", "count"},
	{"autoscale.gpu_s", "sim-s"},
	{"chaos.faults", "count"},
	{"chaos.orphans", "count"},
	{"chaos.recoveries", "count"},
	{"server.handler_p50_ms", "ms"},
	{"server.handler_p99_ms", "ms"},
	{"server.nonsim_p50_ms", "ms"},
	{"tokenizer.encode_ns_per_token", "ns"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_kib_per_req", "KiB"},
	{"runtime.mallocs_per_req", "count"},
	{"loadgen.lat_p99_ms", "ms"},
	{"loadgen.net_p50_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}...)

func layerCPUDefs() []metricDef {
	defs := make([]metricDef, len(layers))
	for i, l := range layers {
		defs[i] = metricDef{l + ".cpu_s", "s"}
	}
	return defs
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64 // how long the timed repetitions run
	trace   bool
	// scale multiplies every input size; the command uses 1 and tests
	// shrink it so the same code path runs in milliseconds.
	scale float64
}

// phase counts one stage's requests, for provenance.
type phase struct {
	Name      string `json:"name"`
	Offered   int    `json:"offered"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
}

// report is what a workload measured: every metric of the run's kind
// (end-to-end without tracing, per-layer with it) and the request counts.
type report struct {
	metrics map[string]float64
	phases  []phase
	raw     rawTimings
	spans   *spans // the traced repetition's spans (traced runs only)
}

// rawTimings are, for the run record, each timed repetition's (or
// serve-http segment's) wall and CPU time in seconds before host-speed
// scaling, and the scale applied to them (measure.go).
type rawTimings struct {
	Wall  []float64 `json:"wall_s"`
	CPU   []float64 `json:"cpu_s"`
	Scale []float64 `json:"scale"`
}

func rawOf(reps []repetition) rawTimings {
	var t rawTimings
	for _, r := range reps {
		t.Wall = append(t.Wall, r.wall.Seconds())
		t.CPU = append(t.CPU, r.cpu.Seconds())
		t.Scale = append(t.Scale, r.scale)
	}
	return t
}

// workload is one benchmark input set and the code that drives it.
type workload struct {
	name string
	run  func(runConfig) (*report, error)
}

var workloads = []workload{
	{"prefix-reuse", prefixReuse},
	{"long-unique", longUnique},
	{"short-churn", shortChurn},
	{"serve-http", serveHTTP},
}

func main() {
	name := flag.String("workload", "", "workload: prefix-reuse, long-unique, short-churn or serve-http")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 20, "seconds of timed repetitions")
	traced := flag.Int("trace", 0, "1 adds a traced repetition and reports per-layer metrics instead of end-to-end ones")
	out := flag.String("out", ".bench_build", "directory for the trace and the run record")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int, out string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", seconds)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	cfg := runConfig{seed: seed, seconds: seconds, trace: traced == 1, scale: 1}
	stem := fmt.Sprintf("%s-seed%d-trace%d", name, seed, traced)
	prov := provenance(name, seed, traced)
	rep, err := w.run(cfg)
	if err != nil {
		return err
	}
	res, err := result(rep, cfg.trace)
	if err != nil {
		return err
	}
	traceFile := filepath.Join(out, "trace-"+stem+".json")
	if cfg.trace {
		if err := rep.spans.write(traceFile, prov); err != nil {
			return err
		}
	}

	for _, k := range []string{"workload", "seed", "trace", "host_cpus", "gomaxprocs", "go_version", "cpu_model"} {
		fmt.Printf("# %s %v\n", k, prov[k])
	}
	for _, p := range rep.phases {
		fmt.Printf("# phase %s offered %d completed %d failed %d\n", p.Name, p.Offered, p.Completed, p.Failed)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		fmt.Printf("# trace %s\n", traceFile)
	}
	for _, d := range defs {
		fmt.Printf("%s %.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	record, err := json.MarshalIndent(map[string]any{
		"provenance": prov, "phases": rep.phases, "raw": rep.raw, "result": res,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "run-"+stem+".json"), append(record, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of a run.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the output line: every metric of the run's kind, no
// other. Correct is always true here — a failed check is an error before
// this point.
func result(rep *report, traced bool) (output, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := output{Correct: true, Metrics: make(map[string]metricValue, len(defs))}
	for _, p := range rep.phases {
		res.Attempted += p.Offered
		res.Failed += p.Failed
	}
	if res.Attempted < 1 {
		return res, errors.New("no request was attempted")
	}
	var missing []string
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return res, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return res, nil
}

// provenance describes the host and the run.
func provenance(name string, seed int64, traced int) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"trace":      traced,
		"host_cpus":  runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
	}
}

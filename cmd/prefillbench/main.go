// Command prefillbench regenerates the paper's tables and figures from the
// simulation harness and prints them as aligned text tables.
//
// Usage:
//
//	prefillbench -exp table1|table2|table3|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|sec2.3|sec6.3|routing|autoscale|slo|chaos|kernel|all
//	             [-scenario L4|A100|H100|H100-NVLink] [-dataset post|credit]
//	             [-seed N] [-small] [-parallel N] [-shards N] [-json FILE]
//	             [-compare-serial] [-compare-unsharded] [-trace FILE] [-timeseries FILE]
//
// Every experiment is one entry of an ordered sweep table. -exp NAME runs
// one entry; -exp all runs every entry the table marks, in table order, at
// -small: the tables, Figures 3–5 and 10, §2.3 and §6.3, one Figure-6
// panel, the four extension sweeps (routing, autoscale, slo, chaos) and
// kernel. An experiment rejects a flag it does not honour instead of
// silently dropping it.
//
// fig6/fig7 honour -scenario and -dataset to render a single panel
// (the full grid is expensive).
//
// -parallel N fans each sweep's independent (config, seed) cells across N
// workers (default GOMAXPROCS; -parallel 1 reproduces the serial
// executor). Cell results are aggregated in index order and every cell is
// self-contained, so output rows are byte-identical at any parallelism —
// only the wall clock changes.
//
// -shards N runs each cell of the four extension sweeps on the sharded
// event kernel with N shard workers (default 1, the serial kernel; results
// are identical either way). For -exp kernel, N extends the shard-scaling
// sweep beyond its default 1/2/4/8 shard counts.
//
// The four extension sweeps also honour -compare-serial and
// -compare-unsharded. -compare-serial reruns the sweep at -parallel 1 and
// -compare-unsharded reruns it on the serial kernel; each fails unless the
// rerun's rows are byte-identical and records the measured wall-clock
// comparison in the JSON as "serial_comparison" or "shard_comparison".
// For chaos, -compare-unsharded is the strongest form of the oracle: fault
// injection, orphan re-routing and recovery are coordinator events, and a
// faulted run must stay byte-identical serial vs sharded.
//
// routing additionally honours -trace FILE: after the sweep it executes one
// dedicated instrumented run with the flight recorder attached and writes
// the resulting Chrome trace-event JSON, loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
//
// routing also honours -timeseries FILE: after the sweep it executes one
// dedicated run with the windowed time-series collector attached and
// writes the series as JSON, plus a CSV sibling (FILE with a .csv
// extension). The collector never perturbs the run. With
// -compare-unsharded and -shards N, the instrumented run repeats on the
// serial kernel and prefillbench fails unless the two series are
// byte-identical.
//
// The four extension sweeps and kernel honour -json to additionally write
// their results as JSON; the CI benchmark smoke step records
// BENCH_routing.json, BENCH_autoscale.json, BENCH_slo.json,
// BENCH_chaos.json and BENCH_kernel.json this way. For -exp all, -json
// names a directory: every JSON-producing experiment writes its
// BENCH_<name>.json file into it. Sweep JSON carries {"rows": ...,
// "executor": ...}: the executor block records serial-equivalent vs.
// parallel wall seconds and allocations per cell, so harness-speed
// regressions are as visible as simulation-result regressions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/router"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

func main() {
	var o options
	exp := flag.String("exp", "all", "experiment to run")
	flag.StringVar(&o.scenario, "scenario", "L4", "scenario for fig6/fig7 panels")
	flag.StringVar(&o.dataset, "dataset", "post", "dataset for fig6/fig7 panels (post|credit)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.BoolVar(&o.small, "small", false, "use scaled-down datasets for quick runs")
	flag.IntVar(&o.parallel, "parallel", experiments.DefaultParallel(),
		"sweep cell parallelism (1 = serial executor; output rows are identical either way)")
	flag.StringVar(&o.jsonPath, "json", "", "also write the experiment's results as JSON (routing, autoscale, slo, chaos, kernel)")
	flag.StringVar(&o.tracePath, "trace", "",
		"write a Perfetto-loadable Chrome trace of one instrumented routing run (routing only)")
	flag.StringVar(&o.timeseriesPath, "timeseries", "",
		"write one instrumented routing run's windowed time-series as JSON, plus a .csv sibling (routing only)")
	flag.BoolVar(&o.compare, "compare-serial", false,
		"run the sweep twice (serial then -parallel) and record the measured wall-clock speedup; fails unless rows are byte-identical (routing, autoscale, slo, chaos)")
	flag.IntVar(&o.shards, "shards", 1,
		"event-kernel shards per run (1 = serial kernel; routing, autoscale, slo, chaos, kernel — rows are identical at any count)")
	flag.BoolVar(&o.compareUnsharded, "compare-unsharded", false,
		"rerun the sweep on the serial kernel and fail unless rows are byte-identical to the -shards run (routing, autoscale, slo, chaos)")
	flag.Parse()

	if err := run(*exp, o); err != nil {
		fmt.Fprintln(os.Stderr, "prefillbench:", err)
		os.Exit(1)
	}
}

// options are the parsed flags every experiment reads from.
type options struct {
	scenario, dataset                   string
	seed                                int64
	small                               bool
	parallel, shards                    int
	jsonPath, tracePath, timeseriesPath string
	compare, compareUnsharded           bool
}

// experiment is one entry of the sweep table: a name for -exp, the flags
// it honours, and its run.
type experiment struct {
	name string
	// all marks the experiments -exp all runs, at -small.
	all bool
	// json, shards and trace mark the experiments that honour -json,
	// -shards, and -trace with -timeseries.
	json, shards, trace bool
	// rows runs an extension sweep at -parallel and -shards. A sweep
	// honours -compare-serial and -compare-unsharded.
	rows func(o options) (any, experiments.CellStats, error)
	// run executes the experiment and prints its table.
	run func(o options) error
}

// table is the sweep table, in the order -exp all runs it.
var table = []experiment{
	{name: "table1", all: true, run: table1},
	{name: "table2", all: true, run: table2},
	{name: "table3", all: true, run: table3},
	{name: "fig3", all: true, run: fig3},
	{name: "fig4", all: true, run: fig4},
	{name: "fig5", all: true, run: fig5},
	{name: "fig6", all: true, run: func(o options) error { return figQPS("fig6", o) }},
	{name: "fig7", run: func(o options) error { return figQPS("fig7", o) }},
	{name: "fig8", run: fig8},
	{name: "fig9", run: fig9},
	{name: "fig10", all: true, run: fig10},
	{name: "fig11", run: fig11},
	{name: "sec2.3", all: true, run: sec23},
	{name: "sec6.3", all: true, run: sec63},
	routingSweep(),
	sweep("autoscale", "Autoscale: fixed fleets vs elastic pool, square-wave burst on L4",
		"mode\tmean JCT (s)\tp99 (s)\tshed\tGPU-s\tsavings vs peak\tpool\tups\tdowns\tcold start (s)",
		experiments.AutoscaleSweepParallel, func(r experiments.AutoscaleSweepRow) string {
			return fmt.Sprintf("%s\t%.3f\t%.3f\t%.3f\t%.1f\t%.1f%%\t[%d,%d]\t%d\t%d\t%.2f",
				r.Mode, r.MeanJCT, r.P99JCT, r.ShedRate, r.GPUSeconds, 100*r.GPUSavingsVsPeak,
				r.TroughInstances, r.PeakInstances, r.ScaleUps, r.ScaleDowns, r.ColdStartSeconds)
		}),
	sweep("slo", "SLO classes: class-blind vs class-aware at equal GPU-seconds, fixed fleet on L4",
		"mode\tint mean (s)\tint p99 (s)\tint shed\tbatch mean (s)\tbatch shed\tbatch goodput (tok/s)\tGPU-s\tcompleted",
		experiments.SLOSweepParallel, func(r experiments.SLOSweepRow) string {
			return fmt.Sprintf("%s\t%.3f\t%.3f\t%d/%d\t%.3f\t%d/%d\t%.0f\t%.1f\t%d",
				r.Mode, r.InteractiveMeanJCT, r.InteractiveP99JCT, r.InteractiveShed, r.InteractiveOffered,
				r.BatchMeanJCT, r.BatchShed, r.BatchOffered, r.BatchGoodputTPS, r.GPUSeconds, r.Completed)
		}),
	sweep("chaos", "Chaos: fault injection and recovery, elastic pool on L4",
		"mode\tmean JCT (s)\tp99 (s)\tshed\tfaults\torphans (rerouted/shed)\trecoveries\tmean recovery (s)\tups\tGPU-s\tp99 degr",
		experiments.ChaosSweepParallel, func(r experiments.ChaosSweepRow) string {
			return fmt.Sprintf("%s\t%.3f\t%.3f\t%.3f\t%d\t%d (%d/%d)\t%d\t%.1f\t%d\t%.1f\t%+.0f%%",
				r.Mode, r.MeanJCT, r.P99JCT, r.ShedRate, r.Faults,
				r.Orphaned, r.OrphansRerouted, r.OrphansShed,
				r.Recoveries, r.MeanRecoverySeconds, r.ScaleUps, r.GPUSeconds,
				100*r.P99DegradationVsBaseline)
		}),
	{name: "kernel", all: true, json: true, shards: true, run: kernel},
}

// run executes -exp name: one table entry, or for "all" every entry the
// table marks, at -small. Under "all", -json names a directory that
// receives each JSON-producing experiment's BENCH_<name>.json.
func run(name string, o options) error {
	var exps []experiment
	for _, e := range table {
		switch {
		case e.name == name:
			exps = append(exps, e)
		case name == "all" && e.all:
			// -trace and -timeseries instrument one extra run of a single
			// experiment, so -exp all honours neither.
			e.trace = false
			exps = append(exps, e)
		}
	}
	if len(exps) == 0 {
		return fmt.Errorf("unknown experiment %q", name)
	}
	if o.shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", o.shards)
	}
	traced := func(e experiment) bool { return e.trace }
	for _, f := range []struct {
		set      bool
		flag     string
		honoured func(experiment) bool
	}{
		{o.jsonPath != "", "-json", func(e experiment) bool { return e.json }},
		{o.tracePath != "", "-trace", traced},
		{o.timeseriesPath != "", "-timeseries", traced},
		{o.compare, "-compare-serial", isSweep},
		{o.shards > 1, "-shards", func(e experiment) bool { return e.shards }},
		{o.compareUnsharded, "-compare-unsharded", isSweep},
	} {
		if f.set && !anyHonours(exps, f.honoured) {
			return fmt.Errorf("%s is not supported by -exp %s (use %s)", f.flag, name, honouring(f.honoured))
		}
	}
	if name != "all" {
		return exps[0].run(o)
	}
	if o.jsonPath != "" {
		if err := os.MkdirAll(o.jsonPath, 0o755); err != nil {
			return fmt.Errorf("-json directory: %w", err)
		}
	}
	for _, e := range exps {
		eo := o
		eo.small = true
		eo.jsonPath = ""
		if e.json && o.jsonPath != "" {
			eo.jsonPath = filepath.Join(o.jsonPath, "BENCH_"+e.name+".json")
		}
		if !e.shards {
			eo.shards = 1
		}
		if !isSweep(e) {
			eo.compare, eo.compareUnsharded = false, false
		}
		if err := e.run(eo); err != nil {
			return err
		}
	}
	return nil
}

// isSweep reports whether the entry is an extension sweep.
func isSweep(e experiment) bool { return e.rows != nil }

// anyHonours reports whether some experiment honours a flag.
func anyHonours(exps []experiment, honoured func(experiment) bool) bool {
	for _, e := range exps {
		if honoured(e) {
			return true
		}
	}
	return false
}

// honouring lists the table entries that honour a flag, for an error hint.
func honouring(honoured func(experiment) bool) string {
	var names []string
	for _, e := range table {
		if honoured(e) {
			names = append(names, e.name)
		}
	}
	if len(names) < 2 {
		return strings.Join(names, "")
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// sweep makes the table entry of an extension sweep. Its run executes the
// sweep at -parallel and -shards; -compare-serial and -compare-unsharded
// rerun it at -parallel 1 and on the serial kernel and fail unless the
// rerun's rows are byte-identical. It prints the rows under title, one
// format line each, and writes them with the executor telemetry to -json.
func sweep[R any](name, title, columns string,
	fn func(seed int64, small bool, parallel, shards int) ([]R, experiments.CellStats, error),
	format func(R) string) experiment {
	rows := func(o options) (any, experiments.CellStats, error) {
		return fn(o.seed, o.small, o.parallel, o.shards)
	}
	return experiment{
		name: name, all: true, json: true, shards: true, rows: rows,
		run: func(o options) error {
			rs, stats, err := fn(o.seed, o.small, o.parallel, o.shards)
			if err != nil {
				return err
			}
			env := benchEnvelope{Rows: rs, Executor: stats}
			if o.compare {
				serial := o
				serial.parallel = 1
				st, err := rerun(rows, serial, rs)
				if err != nil {
					return fmt.Errorf("serial comparison: %w", err)
				}
				c := &serialComparison{
					SerialWallSeconds:   st.WallSeconds,
					ParallelWallSeconds: stats.WallSeconds,
					Parallelism:         stats.Parallelism,
					HostCPUs:            stats.HostCPUs,
					MeasuredSpeedup:     speedup(st, stats),
					RowsByteIdentical:   true,
				}
				env.SerialComparison = c
				fmt.Printf("serial comparison: serial %.2fs vs parallel %.2fs at x%d workers (%d CPUs) = %.2fx, rows byte-identical\n",
					c.SerialWallSeconds, c.ParallelWallSeconds, c.Parallelism, c.HostCPUs, c.MeasuredSpeedup)
			}
			if o.compareUnsharded {
				unsharded := o
				unsharded.shards = 1
				st, err := rerun(rows, unsharded, rs)
				if err != nil {
					return fmt.Errorf("unsharded comparison: %w", err)
				}
				c := &shardComparison{
					Shards:             o.shards,
					HostCPUs:           stats.HostCPUs,
					ShardedWallSeconds: stats.WallSeconds,
					SerialWallSeconds:  st.WallSeconds,
					MeasuredSpeedup:    speedup(st, stats),
					RowsByteIdentical:  true,
				}
				env.ShardComparison = c
				fmt.Printf("shard comparison: serial kernel %.2fs vs %d shards %.2fs (%d CPUs) = %.2fx, rows byte-identical\n",
					c.SerialWallSeconds, c.Shards, c.ShardedWallSeconds, c.HostCPUs, c.MeasuredSpeedup)
			}
			w := header(title)
			fmt.Fprintln(w, columns)
			for _, r := range rs {
				fmt.Fprintln(w, format(r))
			}
			if err := w.Flush(); err != nil {
				return err
			}
			printExecutor(stats)
			if o.jsonPath != "" {
				return writeJSON(o.jsonPath, env)
			}
			return nil
		},
	}
}

// rerun runs a sweep again under o and fails unless its rows are
// byte-identical to want. It returns the rerun's executor telemetry.
func rerun(rows func(options) (any, experiments.CellStats, error), o options, want any) (experiments.CellStats, error) {
	got, stats, err := rows(o)
	if err != nil {
		return stats, err
	}
	a, err := json.Marshal(want)
	if err != nil {
		return stats, err
	}
	b, err := json.Marshal(got)
	if err != nil {
		return stats, err
	}
	if !bytes.Equal(a, b) {
		return stats, fmt.Errorf("determinism violation: rows diverge from the rerun's")
	}
	return stats, nil
}

// speedup is the rerun's wall time over the measured run's.
func speedup(rerun, measured experiments.CellStats) float64 {
	if measured.WallSeconds <= 0 {
		return 0
	}
	return rerun.WallSeconds / measured.WallSeconds
}

func header(title string) *tabwriter.Writer {
	fmt.Printf("\n=== %s ===\n", title)
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// printExecutor summarizes a sweep's cell-executor telemetry under its
// table.
func printExecutor(stats experiments.CellStats) {
	fmt.Printf("executor: %d cells x%d workers, wall %.2fs, serial-equivalent %.2fs, speedup %.2fx, %.0f allocs/cell\n",
		stats.Cells, stats.Parallelism, stats.WallSeconds, stats.SerialEquivalentSeconds,
		stats.Speedup, stats.AllocsPerCell)
}

// benchEnvelope is the sweep JSON shape: result rows plus the executor's
// wall-clock/allocation telemetry, and (under -compare-serial and
// -compare-unsharded) the measured comparisons.
type benchEnvelope struct {
	Rows             any                   `json:"rows"`
	Executor         experiments.CellStats `json:"executor"`
	SerialComparison *serialComparison     `json:"serial_comparison,omitempty"`
	ShardComparison  *shardComparison      `json:"shard_comparison,omitempty"`
}

// serialComparison is a measured (not estimated) speedup: the same sweep
// executed twice, once at parallel=1 and once at the requested
// parallelism, wall clock against wall clock. Rows must be byte-identical
// between the two runs — prefillbench fails otherwise, so the CI smoke
// step doubles as a determinism oracle.
type serialComparison struct {
	SerialWallSeconds   float64 `json:"serial_wall_seconds"`
	ParallelWallSeconds float64 `json:"parallel_wall_seconds"`
	Parallelism         int     `json:"parallelism"`
	HostCPUs            int     `json:"host_cpus"`
	MeasuredSpeedup     float64 `json:"measured_speedup"`
	RowsByteIdentical   bool    `json:"rows_byte_identical"`
}

// shardComparison is the serial-vs-sharded kernel oracle, measured: the
// same sweep executed once on the sharded kernel and once on the serial
// kernel. Rows must be byte-identical — prefillbench fails otherwise, so
// the CI smoke step enforces the sharded kernel's determinism contract on
// every run it benchmarks.
type shardComparison struct {
	Shards             int     `json:"shards"`
	HostCPUs           int     `json:"host_cpus"`
	ShardedWallSeconds float64 `json:"sharded_wall_seconds"`
	SerialWallSeconds  float64 `json:"serial_wall_seconds"`
	MeasuredSpeedup    float64 `json:"measured_speedup"`
	RowsByteIdentical  bool    `json:"rows_byte_identical"`
}

// writeJSON writes v to path (pretty-printed, trailing newline).
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}

// routingSweep is the routing entry: the sweep, then the instrumented runs
// that -trace and -timeseries ask for.
func routingSweep() experiment {
	e := sweep("routing", "Routing: policy comparison, 4x PrefillOnly on L4",
		"dataset\tpolicy\tqps\tmean JCT (s)\tp99 (s)\thit rate\tbalance\trejected",
		experiments.RoutingSweepParallel, func(r experiments.RoutingSweepRow) string {
			return fmt.Sprintf("%s\t%s\t%.2f\t%.3f\t%.3f\t%.2f\t%.2f\t%d",
				r.Dataset, r.Policy, r.QPS, r.MeanJCT, r.P99JCT, r.CacheHitRate, r.BalanceRatio, r.Rejected)
		})
	e.trace = true
	runSweep := e.run
	e.run = func(o options) error {
		if err := runSweep(o); err != nil {
			return err
		}
		if o.tracePath == "" && o.timeseriesPath == "" {
			return nil
		}
		affinity, err := affinityRun(o)
		if err != nil {
			return err
		}
		if o.tracePath != "" {
			if err := writeRoutingTrace(o.tracePath, affinity); err != nil {
				return err
			}
		}
		if o.timeseriesPath != "" {
			return writeRoutingTimeseries(o.timeseriesPath, affinity, o.shards, o.compareUnsharded)
		}
		return nil
	}
	return e
}

// instrumentedRun runs one cell on the given shard count with an
// instrument (a flight recorder or a time-series collector) attached.
type instrumentedRun func(shards int, instrument func(*fleet.Spec)) (*experiments.FleetResult, error)

// affinityRun prepares the routing sweep's affinity cell on its
// Zipf-skewed dataset for one dedicated instrumented run, so the sweep's
// own cells stay uninstrumented and their determinism and allocation
// profile untouched. Each run takes a fresh clone of the dataset.
func affinityRun(o options) (instrumentedRun, error) {
	sc, err := experiments.ScenarioByName("L4")
	if err != nil {
		return nil, err
	}
	const instances = 4
	ds := experiments.RoutingDatasets(o.seed, o.small)[0]
	sat, err := experiments.SaturationQPS(experiments.PrefillOnly, sc, ds.Clone())
	if err != nil {
		return nil, fmt.Errorf("routing saturation on %s: %w", ds.Name, err)
	}
	arr := experiments.Arrivals{QPS: sat * instances / 2 * 0.9, Seed: o.seed}
	return func(shards int, instrument func(*fleet.Spec)) (*experiments.FleetResult, error) {
		spec := fleet.Spec{
			Model: sc.Model, GPU: sc.GPU, Instances: instances,
			Router: &router.Config{Policy: router.AffinityLoad{}},
			Shards: shards, SampleSeconds: 0.5,
		}
		instrument(&spec)
		return experiments.FleetRun(spec, ds.Clone(), arr)
	}, nil
}

// writeRoutingTrace runs the affinity cell on the serial kernel with the
// flight recorder attached and exports it as Chrome trace-event JSON.
func writeRoutingTrace(path string, affinity instrumentedRun) error {
	rec := trace.New(0)
	res, err := affinity(1, func(s *fleet.Spec) { s.Tracer = rec })
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s: %d spans (%d dropped) over %d requests — open in https://ui.perfetto.dev\n",
		path, rec.Len(), rec.Dropped(), len(res.Records)+res.Fleet.Rejected())
	return nil
}

// writeRoutingTimeseries runs the affinity cell with the windowed
// time-series collector attached and writes the series as JSON plus a CSV
// sibling. When verifyUnsharded is set and the run used the sharded
// kernel, the identical run repeats on the serial kernel and the two JSON
// exports must match byte for byte: the determinism oracle extended to
// the telemetry layer itself.
func writeRoutingTimeseries(path string, affinity instrumentedRun, shards int, verifyUnsharded bool) error {
	runOnce := func(shards int) (*experiments.FleetResult, *timeseries.Collector, []byte, error) {
		ts := timeseries.New(timeseries.Config{})
		res, err := affinity(shards, func(s *fleet.Spec) { s.Timeseries = ts })
		if err != nil {
			return nil, nil, nil, err
		}
		var buf bytes.Buffer
		if err := ts.WriteJSON(&buf); err != nil {
			return nil, nil, nil, err
		}
		return res, ts, buf.Bytes(), nil
	}
	res, ts, out, err := runOnce(shards)
	if err != nil {
		return err
	}
	if verifyUnsharded && shards > 1 {
		_, _, serialOut, err := runOnce(1)
		if err != nil {
			return fmt.Errorf("unsharded timeseries run: %w", err)
		}
		if !bytes.Equal(out, serialOut) {
			return fmt.Errorf("determinism violation: %d-shard time-series diverges from serial kernel's", shards)
		}
		fmt.Printf("timeseries comparison: %d shards vs serial kernel byte-identical\n", shards)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	csvPath := strings.TrimSuffix(path, filepath.Ext(path)) + ".csv"
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	if err := ts.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and %s: %d windows over %d completed + %d rejected requests\n",
		path, csvPath, len(ts.Windows()), len(res.Records), res.Fleet.Rejected())
	return nil
}

func table1(o options) error {
	w := header("Table 1: dataset summary")
	fmt.Fprintln(w, "dataset\tusers\trequests\treq/user\tmean len\tmax len\ttotal tokens")
	for _, r := range experiments.Table1(o.seed) {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.0f\t%d\t%d\n",
			r.Dataset, r.Users, r.Requests, r.RequestsPerUser, r.MeanLen, r.MaxLen, r.TotalTokens)
	}
	return w.Flush()
}

func table2(o options) error {
	rows, stats, err := experiments.Table2Parallel(o.parallel)
	if err != nil {
		return err
	}
	w := header("Table 2: max input length (tokens)")
	fmt.Fprintln(w, "engine\tGPU\tMIL\tWL1\tWL2")
	mark := func(b bool) string {
		if b {
			return "ok"
		}
		return "x"
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%s\t%d\t%s\t%s\n", r.Engine, r.Scenario, r.MIL, mark(r.WL1OK), mark(r.WL2OK))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	return nil
}

func table3(options) error {
	w := header("Table 3: hardware and models")
	fmt.Fprintln(w, "scenario\tGPU\tcount\tmem GiB\tlink\tmodel\tweights GiB")
	for _, r := range experiments.Table3() {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.0f\t%s\t%s\t%.1f\n",
			r.Scenario, r.GPUName, r.GPUCount, r.MemoryGiB, r.Interconnect, r.ModelName, r.WeightGiB)
	}
	return w.Flush()
}

func fig3(options) error {
	res, err := experiments.Figure3()
	if err != nil {
		return err
	}
	w := header("Figure 3: memory trace peaks (32,768 tokens, Llama-3.1-8B)")
	gib := func(b int64) float64 { return float64(b) / (1 << 30) }
	fmt.Fprintf(w, "configuration\tpeak above weights\ttotal peak (incl %.1f GiB weights)\ttrace events\n", gib(res.WeightBytes))
	fmt.Fprintf(w, "standard prefill\t%.2f GiB\t%.2f GiB\t%d\n",
		gib(res.StandardPeak), gib(res.StandardPeak+res.WeightBytes), len(res.Standard))
	fmt.Fprintf(w, "hybrid prefill\t%.2f GiB\t%.2f GiB\t%d\n",
		gib(res.HybridPeak), gib(res.HybridPeak+res.WeightBytes), len(res.Hybrid))
	fmt.Fprintf(w, "saving\t%.2f GiB\t\t\n", gib(res.StandardPeak-res.HybridPeak))
	return w.Flush()
}

func fig4(options) error {
	w := header("Figure 4: MLP tensor sizes (32,768 tokens, Llama-3.1-8B)")
	fmt.Fprintln(w, "tensor\tshape\tMiB\tvs one-layer KV")
	for _, r := range experiments.Figure4() {
		fmt.Fprintf(w, "%s\t%dx%d\t%.0f\t%.1fx\n",
			r.Tensor, r.Shape[0], r.Shape[1], float64(r.Bytes)/(1<<20), r.VsOneLayerKV)
	}
	return w.Flush()
}

func fig5(options) error {
	rows, err := experiments.Figure5()
	if err != nil {
		return err
	}
	w := header("Figure 5: scheduling walkthrough (A<C<B<D, cache holds one request)")
	fmt.Fprintln(w, "policy\texecution order\tcache hits")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\n", r.Policy, strings.Join(r.Order, ","), r.CacheHits)
	}
	return w.Flush()
}

func figQPS(which string, o options) error {
	sc, err := experiments.ScenarioByName(o.scenario)
	if err != nil {
		return err
	}
	kind := experiments.PostRecommendation
	if strings.HasPrefix(o.dataset, "credit") {
		kind = experiments.CreditVerification
	}
	panel, stats, err := qpsPanel(sc, kind, o.seed, o.small, o.parallel)
	if err != nil {
		return err
	}
	metric := "mean"
	if which == "fig7" {
		metric = "p99"
	}
	w := header(fmt.Sprintf("Figure %s panel: %s / %s (saturation %.3f qps)",
		strings.TrimPrefix(which, "fig"), panel.Scenario, panel.Dataset, panel.SaturationQPS))
	fmt.Fprintf(w, "engine\tqps\t%s latency (s)\ttput (req/s)\thit rate\tinfeasible\n", metric)
	for _, p := range panel.Points {
		lat := p.MeanLatency
		if which == "fig7" {
			lat = p.P99Latency
		}
		fmt.Fprintf(w, "%v\t%.3f\t%.2f\t%.3f\t%.2f\t%.2f\n",
			p.Engine, p.QPS, lat, p.ThroughputRPS, p.CacheHitRate, p.InfeasibleFrac)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	return nil
}

func qpsPanel(sc experiments.Scenario, kind experiments.DatasetKind, seed int64, small bool, parallel int) (*experiments.QPSLatencyPanel, experiments.CellStats, error) {
	if !small {
		return experiments.QPSLatencyParallel(sc, kind, nil, seed, parallel)
	}
	// Scaled-down panel: same grid over the small dataset.
	ds := experiments.SmallDataset(kind, seed)
	return experiments.QPSLatencyOn(sc, ds.Name+" (small)", ds, nil, seed, parallel)
}

func fig8(o options) error {
	rows, stats, err := experiments.Figure8Parallel(o.seed, o.parallel)
	if err != nil {
		return err
	}
	w := header("Figure 8: credit-verification throughput, 2xH100")
	fmt.Fprintln(w, "engine\tNVLink\tthroughput (req/s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%v\t%.4f\n", r.Engine, r.NVLink, r.ThroughputRPS)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	return nil
}

func fig9(o options) error {
	rows, stats, err := experiments.Figure9Parallel(o.seed, o.parallel)
	if err != nil {
		return err
	}
	w := header("Figure 9: post-recommendation throughput vs QPS, 2xH100 (PCIe)")
	fmt.Fprintln(w, "engine\toffered qps\tthroughput (req/s)\thit rate")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%.2f\t%.3f\t%.2f\n", r.Engine, r.QPS, r.ThroughputRPS, r.CacheHitRate)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	return nil
}

func fig10(options) error {
	rows, err := experiments.Figure10()
	if err != nil {
		return err
	}
	w := header("Figure 10: hybrid prefilling MIL ablation (Qwen-2.5-32B FP8, A100)")
	fmt.Fprintln(w, "configuration\tmax input length")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\n", r.Config, r.MIL)
	}
	return w.Flush()
}

func fig11(o options) error {
	curves, stats, err := experiments.Figure11Parallel(o.seed, o.parallel)
	if err != nil {
		return err
	}
	w := header("Figure 11: latency CDF under fairness parameter λ")
	fmt.Fprintln(w, "λ\tmean latency (s)\tp99 latency (s)")
	for _, c := range curves {
		fmt.Fprintf(w, "%.0f\t%.2f\t%.2f\n", c.Lambda, c.MeanLatency, c.P99Latency)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	return nil
}

func kernel(o options) error {
	events := 4_000_000
	if o.small {
		events = 1_000_000
	}
	counts := []int{1, 2, 4, 8}
	if o.shards > 1 {
		found := false
		for _, c := range counts {
			found = found || c == o.shards
		}
		if !found {
			counts = append(counts, o.shards)
		}
	}
	res, err := experiments.KernelBench(events, counts)
	if err != nil {
		return err
	}
	w := header(fmt.Sprintf("Kernel: sim event throughput, %d events at depth %d (%d CPUs, %s)",
		res.Events, res.Depth, res.HostCPUs, res.GoVersion))
	fmt.Fprintln(w, "path\tevents/sec\tallocs/event")
	fmt.Fprintf(w, "closure (pre-refactor idiom)\t%.0f\t%.2f\n", res.ClosureEventsPerSec, res.ClosureAllocsPerEvent)
	fmt.Fprintf(w, "fast path (AtFunc/AfterFunc)\t%.0f\t%.2f\n", res.FastPathEventsPerSec, res.FastPathAllocsPerEvent)
	fmt.Fprintf(w, "speedup\t%.2fx\t\n", res.FastPathSpeedup)
	if err := w.Flush(); err != nil {
		return err
	}
	w = header(fmt.Sprintf("Kernel: shard scaling, %d chains x %d events", res.ShardChains, res.ShardEvents))
	fmt.Fprintln(w, "shards\tevents/sec\tspeedup vs serial\tallocs/event\twindows\tbound coord/lookahead\tmean stall")
	for _, r := range res.ShardScaling {
		if r.Kernel == nil {
			fmt.Fprintf(w, "%d\t%.0f\t%.2fx\t%.2f\t-\t-\t-\n", r.Shards, r.EventsPerSec, r.Speedup, r.AllocsPerEvent)
			continue
		}
		var busy, stall uint64
		for _, sh := range r.Kernel.Shards {
			busy += sh.BusyNanos
			stall += sh.StallNanos
		}
		meanStall := 0.0
		if busy+stall > 0 {
			meanStall = float64(stall) / float64(busy+stall)
		}
		fmt.Fprintf(w, "%d\t%.0f\t%.2fx\t%.2f\t%d\t%d/%d\t%.0f%%\n",
			r.Shards, r.EventsPerSec, r.Speedup, r.AllocsPerEvent,
			r.Kernel.Windows, r.Kernel.WindowsBoundByCoordinator, r.Kernel.WindowsBoundByLookahead, 100*meanStall)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if o.jsonPath != "" {
		return writeJSON(o.jsonPath, res)
	}
	return nil
}

func sec23(options) error {
	res, err := experiments.Section23(64)
	if err != nil {
		return err
	}
	w := header("§2.3: prefill-only vs generative latency (Llama-3.1-8B, H100)")
	fmt.Fprintln(w, "request\tlatency (s)")
	fmt.Fprintf(w, "2048 in / 1 out\t%.3f\n", res.PrefillSeconds)
	fmt.Fprintf(w, "2048 in / 256 out (batch %d)\t%.3f\n", res.DecodeBatch, res.GenerativeSeconds)
	fmt.Fprintf(w, "slowdown\t%.2fx (paper: ~1.5x)\n", res.Slowdown)
	return w.Flush()
}

func sec63(options) error {
	res, err := experiments.Section63()
	if err != nil {
		return err
	}
	w := header("§6.3: JCT proxy validation (Qwen-32B FP8, A100)")
	fmt.Fprintf(w, "Pearson(JCT, cache-miss tokens)\t%.4f (paper: 0.987)\n", res.Pearson)
	fmt.Fprintf(w, "grid points\t%d\n", res.Points)
	return w.Flush()
}

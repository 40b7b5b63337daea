package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	prefillonly "repro"
	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/kvcache"
)

// Fleet workload sizes and rates. They are constants, never measured at
// run time, so a change to the program cannot change the load it is
// measured under.
const (
	fleetGPUs = 8 // L4s, one PrefillOnly instance each, affinity-routed

	// prefix-reuse and long-unique are the paper's post recommendation
	// (WL1) and credit verification (WL2) at their Table 1 sizes, each at
	// 0.9 of the fleet's saturation rate (TestFleetRates measures it).
	prefixUsers = 20
	prefixQPS   = 35.2
	longDocs    = 60
	longQPS     = 0.224
	// The fleets are profiled up to the longest input the generators can
	// produce, rounded up to a thousand tokens, whatever the seed: WL1's
	// 32-token template, 17 000-token profile cap and 150-token post;
	// WL2's template and 60 000-token history cap.
	prefixMaxInput = 18_000
	longMaxInput   = 61_000

	// short-churn: per input set, 50 000 Zipf-skewed ~96-token requests
	// on an elastic pool with crashes, stragglers and preemptions at the
	// ChaosSweep recipe's rates (6, 4 and 4 per run span). The floor of
	// four instances keeps one routable through overlapping faults, so no
	// request is shed: with a floor of three, 3 of input-set seeds 1–400
	// lost every routable instance at some point and shed requests; with
	// four, none of seeds 1–1600 did.
	churnRequests = 50_000
	churnUsers    = 4096
	churnQPS      = 108.2
	churnMinInst  = 4
	churnMaxInst  = 8

	blockTokens = 16 // the engines' prefix-cache block size
)

// inputSets is how many sets of inputs a fleet run generates from its
// seed, one after another: each gets a warm-up repetition and an equal
// share of the timed ones, so a run's medians cover four draws of the
// inputs rather than one. One draw of the paper's size moves a
// repetition's work by up to a tenth from seed to seed, through its
// users' profile lengths, arrival bursts and fault schedule. Only one set
// is held at a time.
const inputSets = 4

// setSeed is the seed input set i of a run is generated from.
func setSeed(seed int64, i int) int64 { return seed*inputSets + int64(i) }

// repetition is one repetition of a fleet workload, or one segment of
// serve-http's load.
type repetition struct {
	wall, cpu time.Duration // of the serving call (Run or ChaosRun) or the segment
	latMs     float64       // the latency it reports, in ms
	scale     float64       // host-speed scale of the timings (measure.go)
	heapMiB   float64       // live heap above the pre-setup baseline
	offered   int
	completed int
	failed    int // rejected, shed, or answered with an error
	// digest fingerprints a fleet repetition's outcome; every repetition
	// of one input set, traced or not, must produce the same one.
	digest [sha256.Size]byte
	counts map[string]float64 // per-layer counts read after the run
	passes []graph.PassSpec   // (length, cached) per request, for the pricing replay
}

func (r repetition) phase(name string) phase {
	return phase{Name: name, Offered: r.offered, Completed: r.completed, Failed: r.failed}
}

func (p *phase) add(r repetition) {
	p.Offered += r.offered
	p.Completed += r.completed
	p.Failed += r.failed
}

// repFunc runs one repetition on input set ds, number set of the run.
// warm marks the untimed warm-up repetition, which measures the memory.
type repFunc func(ds *prefillonly.Dataset, set int, warm bool, sp *spans) (repetition, error)

func scaled(n int, scale float64) int { return max(2, int(math.Round(float64(n)*scale))) }

func prefixDataset(seed int64, scale float64) *prefillonly.Dataset {
	return prefillonly.NewPostRecommendation(prefillonly.PostRecommendationConfig{
		Users: scaled(prefixUsers, scale), Seed: seed,
	})
}

func longDataset(seed int64, scale float64) *prefillonly.Dataset {
	return prefillonly.NewCreditVerification(prefillonly.CreditVerificationConfig{
		Users: scaled(longDocs, scale), Seed: seed,
	})
}

func prefixReuse(cfg runConfig) (*report, error) {
	return facadeFleet(cfg, prefixDataset, prefixMaxInput, prefixQPS)
}

func longUnique(cfg runConfig) (*report, error) {
	return facadeFleet(cfg, longDataset, longMaxInput, longQPS)
}

// fleetConfig is the fixed fleet the prefix-reuse and long-unique
// workloads run on, profiled up to maxInput tokens.
func fleetConfig(maxInput int) prefillonly.SimulationConfig {
	return prefillonly.SimulationConfig{
		GPUs:          fleetGPUs,
		RoutingPolicy: "affinity",
		MaxInputLen:   maxInput,
	}
}

// facadeFleet drives a fixed fleet through the facade: NewSimulation →
// SubmitDataset → Run.
func facadeFleet(cfg runConfig, dataset func(int64, float64) *prefillonly.Dataset, maxInput int, qps float64) (*report, error) {
	simCfg := fleetConfig(maxInput)
	setup, err := setupSeconds(func() (func(), error) {
		_, err := prefillonly.NewSimulation(simCfg)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	gen := func(set int) *prefillonly.Dataset { return dataset(setSeed(cfg.seed, set), cfg.scale) }
	rep := func(base *prefillonly.Dataset, set int, _ bool, sp *spans) (repetition, error) {
		if base.MaxLen > maxInput {
			return repetition{}, fmt.Errorf("a %d-token input exceeds the fleet's %d", base.MaxLen, maxInput)
		}
		// A fresh clone per repetition: runs stamp arrivals and memoize
		// hash chains on the requests, and every repetition pays for both.
		ds := base.Clone()
		r := repetition{offered: len(ds.Requests)}
		baseline := liveHeap()
		end := sp.begin("NewSimulation")
		s, err := prefillonly.NewSimulation(simCfg)
		end()
		if err == nil {
			end = sp.begin("SubmitDataset")
			err = s.SubmitDataset(ds, qps, setSeed(cfg.seed, set))
			end()
		}
		if err != nil {
			return r, err
		}
		end = sp.begin("Run")
		c0, t0 := cpuTime(), time.Now()
		recs := s.Run()
		r.wall, r.cpu = time.Since(t0), cpuTime()-c0
		r.latMs = ms(r.wall) // every answer is available when Run returns
		end()
		r.heapMiB = above(liveHeap(), baseline)
		r.completed, r.failed = len(recs), s.Rejected()
		if err := checkRecords(recs, r.offered, r.failed); err != nil {
			return r, err
		}
		r.digest = digestRecords(recs)
		r.counts = facadeCounts(s, recs)
		r.passes = make([]graph.PassSpec, len(recs))
		for i, rec := range recs {
			r.passes[i] = graph.PassSpec{Total: rec.Req.Len(), Cached: rec.CachedTokens}
		}
		return r, nil
	}
	return measureFleet(cfg, setup, gen, rep)
}

// facadeCounts reads the per-layer counts of a finished simulation from
// its public accessors and records.
func facadeCounts(s *prefillonly.Simulation, recs []prefillonly.Record) map[string]float64 {
	rt := s.Router()
	var st kvcache.Stats
	for _, e := range rt.Instances() {
		if c := e.Cache(); c != nil {
			cs := c.Stats()
			st.LookupTokens += cs.LookupTokens
			st.HitTokens += cs.HitTokens
			st.InsertedBlocks += cs.InsertedBlocks
			st.EvictedBlocks += cs.EvictedBlocks
		}
	}
	var rejects int64
	for _, c := range rt.Admission().Snapshot() {
		rejects += c.Rejected
	}
	waits := make([]float64, len(recs))
	for i, r := range recs {
		waits[i] = r.QueueTime()
	}
	lat := prefillonly.SummarizeLatencies(recs)
	var routed []int64
	for _, l := range rt.Loads() {
		routed = append(routed, l.RoutedRequests)
	}
	return map[string]float64{
		"kvcache.inserted_blocks": float64(st.InsertedBlocks),
		"kvcache.evicted_blocks":  float64(st.EvictedBlocks),
		"kvcache.hit_token_share": st.HitRate(),
		"sched.queue_wait_p50_s":  median(waits),
		"sim.jct_p50_s":           lat.P50,
		"sim.jct_p99_s":           lat.P99,
		"router.balance_ratio":    balance(routed),
		"router.rejects":          float64(rejects),
	}
}

// balance is the busiest instance's routed requests over the mean.
func balance(routed []int64) float64 {
	var most, sum int64
	for _, n := range routed {
		most = max(most, n)
		sum += n
	}
	if sum == 0 {
		return 0
	}
	return float64(most) * float64(len(routed)) / float64(sum)
}

// checkRecords verifies a run's accounting and every record: offered =
// completed + rejected, each request completes at most once, Arrival ≤
// Start ≤ Finish, and the cache hit never exceeds the input.
func checkRecords(recs []prefillonly.Record, offered, rejected int) error {
	if len(recs)+rejected != offered {
		return fmt.Errorf("%d completed + %d rejected != %d offered", len(recs), rejected, offered)
	}
	seen := make(map[int64]bool, len(recs))
	for _, r := range recs {
		switch {
		case seen[r.Req.ID]:
			return fmt.Errorf("request %d completed twice", r.Req.ID)
		case !(r.Arrival <= r.Start && r.Start <= r.Finish):
			return fmt.Errorf("request %d: arrival %g, start %g, finish %g out of order", r.Req.ID, r.Arrival, r.Start, r.Finish)
		case r.CachedTokens < 0 || r.CachedTokens > r.Req.Len():
			return fmt.Errorf("request %d: %d cached of %d tokens", r.Req.ID, r.CachedTokens, r.Req.Len())
		}
		seen[r.Req.ID] = true
	}
	return nil
}

// digestRecords hashes (ID, Start, Finish, CachedTokens) in finish order.
func digestRecords(recs []prefillonly.Record) [sha256.Size]byte {
	h := sha256.New()
	var b [32]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.Req.ID))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Start))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.Finish))
		binary.LittleEndian.PutUint64(b[24:], uint64(r.CachedTokens))
		h.Write(b[:])
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// shortChurn drives an elastic, fault-injected pool through
// experiments.ChaosRun.
func shortChurn(cfg runConfig) (*report, error) {
	sc, err := experiments.ScenarioByName("L4")
	if err != nil {
		return nil, err
	}
	dataset := func(set, requests int) *prefillonly.Dataset {
		return prefillonly.NewSkewed(prefillonly.SkewedConfig{
			Users: churnUsers, Requests: requests,
			ProfileMean: 48, ProfileStd: 16, ProfileMin: 16, ProfileMax: 96, PostLen: 16,
			Seed: setSeed(cfg.seed, set),
		})
	}
	runCfg := func(set int, ds *prefillonly.Dataset, faults bool) experiments.ChaosRunConfig {
		seed := setSeed(cfg.seed, set)
		rc := experiments.ChaosRunConfig{
			Scenario: sc, Dataset: ds, QPS: churnQPS, Seed: seed,
			MinInstances: churnMinInst, MaxInstances: churnMaxInst,
		}
		if faults {
			span := float64(len(ds.Requests)) / churnQPS
			rc.Chaos = chaos.Config{
				Seed:          seed,
				CrashRate:     6 / span,
				StragglerRate: 4 / span, SlowFactor: 4, StragglerSeconds: span / 8,
				PreemptRate: 4 / span, NoticeSeconds: span / 32,
			}
		}
		return rc
	}
	// ChaosRun builds its fleet inside the call, so set-up is timed as a
	// failure-free ChaosRun of a single request.
	one := dataset(0, 1)
	setup, err := setupSeconds(func() (func(), error) {
		_, err := experiments.ChaosRun(runCfg(0, one.Clone(), false))
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	gen := func(set int) *prefillonly.Dataset { return dataset(set, scaled(churnRequests, cfg.scale)) }
	rep := func(base *prefillonly.Dataset, set int, warm bool, sp *spans) (repetition, error) {
		ds := base.Clone()
		r := repetition{offered: len(ds.Requests)}
		baseline := liveHeap()
		// ChaosRun releases its fleet on return: take the largest live
		// heap seen while it runs. The untimed warm-up forces a collection
		// at every sample, because the inputs make the heap goal so high
		// that a repetition can finish before a cycle runs on its own.
		watch := watchHeap(warm)
		end := sp.begin("ChaosRun")
		c0, t0 := cpuTime(), time.Now()
		res, err := experiments.ChaosRun(runCfg(set, ds, true))
		r.wall, r.cpu = time.Since(t0), cpuTime()-c0
		r.latMs = ms(r.wall) // every answer is available when ChaosRun returns
		end()
		peak, _ := watch.result()
		r.heapMiB = above(peak, baseline)
		if err != nil {
			return r, err
		}
		r.completed, r.failed = res.Completed, res.Rejected+res.OrphanShed
		f := res.Faults
		switch {
		case res.Completed+res.Rejected+res.OrphanShed != r.offered:
			return r, fmt.Errorf("%d completed + %d rejected + %d orphan-shed != %d offered",
				res.Completed, res.Rejected, res.OrphanShed, r.offered)
		case f.Orphaned != f.Rerouted+f.Shed:
			return r, fmt.Errorf("%d orphaned != %d rerouted + %d shed", f.Orphaned, f.Rerouted, f.Shed)
		case !(res.Latency.P50 <= res.Latency.P99):
			return r, fmt.Errorf("latency p50 %g above p99 %g", res.Latency.P50, res.Latency.P99)
		}
		js, err := json.Marshal(res)
		if err != nil {
			return r, err
		}
		r.digest = sha256.Sum256(js)
		r.counts = map[string]float64{
			"sim.jct_p50_s":       res.Latency.P50,
			"sim.jct_p99_s":       res.Latency.P99,
			"router.rejects":      float64(res.Rejected),
			"autoscale.scale_ups": float64(res.ScaleUps),
			"autoscale.gpu_s":     res.GPUSeconds,
			"chaos.faults":        float64(f.Faults()),
			"chaos.orphans":       float64(f.Orphaned),
			"chaos.recoveries":    float64(f.Recoveries),
		}
		// ChaosRun returns no records; price every request uncached.
		r.passes = make([]graph.PassSpec, len(ds.Requests))
		for i, q := range ds.Requests {
			r.passes[i] = graph.PassSpec{Total: q.Len()}
		}
		return r, nil
	}
	return measureFleet(cfg, setup, gen, rep)
}

// measureFleet generates the input sets one at a time and runs each one's
// warm-up and timed repetitions, checks that all repetitions of a set
// produced the same outcome, and reports the end-to-end metrics. A traced
// run adds one profiled repetition of the last set and reports per-layer
// metrics.
func measureFleet(cfg runConfig, setup float64, gen func(set int) *prefillonly.Dataset, rep repFunc) (*report, error) {
	warmup, all := phase{Name: "warmup"}, phase{Name: "timed"}
	var heap []float64
	var ds *prefillonly.Dataset
	var warm repetition
	var timed, allTimed []repetition
	for set := 0; set < inputSets; set++ {
		ds = nil // let the previous set go before generating the next
		ds = gen(set)
		var err error
		warm, timed, err = repeat(cfg.seconds/inputSets, func(w bool) (repetition, error) { return rep(ds, set, w, nil) })
		if err != nil {
			return nil, err
		}
		warmup.add(warm)
		heap = append(heap, warm.heapMiB)
		for _, r := range timed {
			if r.digest != warm.digest {
				return nil, errors.New("repetitions of one input set produced different records")
			}
			if r.completed == 0 {
				return nil, errors.New("no request completed")
			}
			all.add(r)
		}
		allTimed = append(allTimed, timed...)
	}
	out := &report{phases: []phase{warmup, all}, raw: rawOf(allTimed)}
	if !cfg.trace {
		out.metrics = endToEndMetrics(setup, allTimed, heap)
		return out, nil
	}

	sp := newSpans()
	var tr repetition
	var before, after runtime.MemStats
	sm := newSpeedometer()
	cpu, err := profiled(func() (err error) {
		runtime.ReadMemStats(&before)
		tr, err = rep(ds, inputSets-1, false, sp)
		runtime.ReadMemStats(&after)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.scale = sm.scale()
	if tr.digest != warm.digest {
		return nil, errors.New("the traced repetition's records differ from the untraced ones")
	}
	out.phases = append(out.phases, tr.phase("traced"))
	m := layerMetrics()
	addLayerCPU(m, cpu)
	for k, v := range tr.counts {
		m[k] = v
	}
	addMemStats(m, &before, &after, tr.completed)
	// Against the untraced repetitions of the same input set.
	m["trace.overhead_frac"] = cpuPerReq(tr)/medianCPUPerReq(timed) - 1
	inputs := make([][]uint64, len(ds.Requests))
	for i, r := range ds.Requests {
		inputs[i] = r.Tokens
	}
	m["kvcache.hash_ns_per_token"] = replayHash(inputs, sp)
	if m["graph.estimate_ns_per_call"], err = replayEstimate(tr.passes, sp); err != nil {
		return nil, err
	}
	out.metrics, out.spans = m, sp
	return out, nil
}

// layerMetrics starts a traced run's metrics with every per-layer metric
// at 0: the metrics of layers a workload does not exercise stay 0.
func layerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// addMemStats reports the runtime's GC cycles and allocation per
// completed request between two readings.
func addMemStats(m map[string]float64, before, after *runtime.MemStats, completed int) {
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	if completed > 0 {
		m["runtime.alloc_kib_per_req"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(completed)
		m["runtime.mallocs_per_req"] = float64(after.Mallocs-before.Mallocs) / float64(completed)
	}
}

// Replays time one layer function on the workload's own inputs, outside
// the program, and record a span for it. Results go to sinks so the
// compiler keeps the calls.
var (
	hashSink     []uint64
	estimateSink float64
)

// replayHash is kvcache.BlockHashes' cost per input token.
func replayHash(inputs [][]uint64, sp *spans) float64 {
	defer sp.begin("replay kvcache.BlockHashes")()
	n := 0
	for _, t := range inputs {
		n += len(t)
	}
	return nsPer(n, func() {
		for _, t := range inputs {
			hashSink = kvcache.BlockHashes(t, blockTokens)
		}
	})
}

// replayEstimate is graph.Executor.EstimateSeconds' cost per call, over
// the (length, cached) pairs the run priced.
func replayEstimate(passes []graph.PassSpec, sp *spans) (float64, error) {
	defer sp.begin("replay graph.EstimateSeconds")()
	exec := graph.New(prefillonly.Llama31_8B(), prefillonly.L4())
	opts := graph.HybridOptions(graph.DefaultChunkSize)
	var err error
	ns := nsPer(len(passes), func() {
		for _, p := range passes {
			var e error
			if estimateSink, e = exec.EstimateSeconds(p, opts); e != nil {
				err = e
			}
		}
	})
	return ns, err
}

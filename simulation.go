package prefillonly

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/router"
	"repro/internal/timeseries"
	"repro/internal/tokenizer"
	"repro/internal/trace"
)

// EngineName selects a serving engine implementation.
type EngineName string

// The five engines the paper compares.
const (
	// EnginePrefillOnly is the paper's engine: hybrid prefilling, suffix
	// KV discarding, SRJF with continuous JCT calibration.
	EnginePrefillOnly EngineName = "prefillonly"
	// EnginePagedAttention is the vLLM baseline (standard prefill, FCFS).
	EnginePagedAttention EngineName = "pagedattention"
	// EngineChunkedPrefill is the Sarathi-Serve baseline.
	EngineChunkedPrefill EngineName = "chunked-prefill"
	// EngineTensorParallel is TP=2 across a GPU pair.
	EngineTensorParallel EngineName = "tensor-parallel"
	// EnginePipelineParallel is PP=2 across a GPU pair.
	EnginePipelineParallel EngineName = "pipeline-parallel"
)

// SimulationConfig configures NewSimulation. Zero values take the paper's
// low-end setup: PrefillOnly on two L4 GPUs serving Llama-3.1-8B.
type SimulationConfig struct {
	// Engine selects the serving engine (default EnginePrefillOnly).
	Engine EngineName
	// Model is the served model (default Llama31_8B()).
	Model *ModelConfig
	// GPU is the device type (default L4()).
	GPU *GPUSpec
	// GPUs is the total device count (default 2). Parallel engines span
	// pairs; serial engines get one instance per GPU with user-id
	// routing.
	GPUs int
	// MaxInputLen is the profile-run length (default: 20000, or set it
	// to your workload's maximum).
	MaxInputLen int
	// Lambda is PrefillOnly's fairness parameter in ms of JCT credit per
	// second queued (default 500; negative means 0).
	Lambda float64
	// HostCacheBytes enables the §9 CPU KV-offload extension: evicted
	// prefix KV demotes to a host tier of this size and is restored over
	// the host link when that beats recomputation (0 = discard, the
	// paper's default).
	HostCacheBytes int64
	// RoutingPolicy selects the router's policy. Empty keeps the paper's
	// §7.1 first-appearance round-robin (the router's FirstSeen policy,
	// named "firstseen"); "userhash", "leastloaded" or "affinity" route
	// by user hash, live load or prefix-cache affinity. Admission control
	// and autoscaling need one of the three named policies.
	RoutingPolicy string
	// MaxBacklogSeconds enables admission control in routed mode: requests
	// whose projected completion wait exceeds the bound are rejected and
	// counted (see Rejected) instead of queued. Requires RoutingPolicy.
	MaxBacklogSeconds float64
	// ClassBacklogSeconds overrides MaxBacklogSeconds per SLO class in
	// routed mode: a batch budget below the interactive bound sheds batch
	// load before interactive load is ever touched. Requires
	// RoutingPolicy.
	ClassBacklogSeconds map[Class]float64
	// ClassWeights deprioritizes SLO classes in PrefillOnly's calibrated
	// scheduler (class JCT × weight inside the heap key; batch weight > 1
	// makes batch yield to interactive). Requires EnginePrefillOnly.
	ClassWeights map[Class]float64
	// Autoscale enables the elastic instance pool (internal/autoscale):
	// the cluster starts at Autoscale.MinInstances engines and scales
	// between that floor and Autoscale.MaxInstances (default: the GPUs
	// fleet size) from live backlog and admission signals, paying a
	// model-load cold start per scale-up. Requires RoutingPolicy; the
	// cold-start delay derives from this config's Model and GPU unless
	// set explicitly.
	Autoscale *AutoscaleConfig
	// TraceSpans enables the sim-time flight recorder when non-zero: the
	// ring keeps that many recent spans (negative = DefaultMaxSpans).
	// Read it back with Trace(); its WriteTrace exports Perfetto-loadable
	// Chrome trace JSON. Disabled tracing costs nothing on the hot path.
	TraceSpans int
	// TraceSampleSeconds is the fleet-gauge sampling interval in sim
	// seconds when tracing is enabled (default 0.5).
	TraceSampleSeconds float64
	// TimeseriesSeconds enables the windowed time-series collector
	// (internal/timeseries) with that window width in sim seconds:
	// per-window throughput, arrival and shed rates, per-class latency
	// quantiles, fleet gauges and rolling SLO burn rate. Read it back
	// with Timeseries(); export with its WriteJSON/WriteCSV. Disabled
	// (0) costs nothing on the hot path; enabled it never perturbs the
	// simulation — records are bit-identical either way.
	TimeseriesSeconds float64
	// Shards selects the event kernel: <= 1 runs the serial kernel, >= 2
	// runs the sharded kernel with that many shard workers — engine
	// instances round-robin onto shard clocks and execute their pass and
	// dispatch events in parallel inside conservative time windows, while
	// arrivals, routing, autoscaling and gauge sampling stay on the
	// coordinator. Results are identical to the serial kernel (the window
	// lookahead derives from the catalogs' minimum priced pass time);
	// only the wall clock changes.
	Shards int
}

// Simulation is a deterministic serving cluster on a virtual clock.
type Simulation struct {
	fleet   *fleet.Fleet
	tok     *tokenizer.Tokenizer
	records []Record
	nextID  int64
	offered int
}

// NewSimulation builds the cluster (running each engine's profile run and
// sizing its prefix-cache pool) and returns a ready simulation.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	if cfg.Engine == "" {
		cfg.Engine = EnginePrefillOnly
	}
	if cfg.Model == nil {
		cfg.Model = Llama31_8B()
	}
	if cfg.GPU == nil {
		cfg.GPU = L4()
	}
	if cfg.GPUs == 0 {
		cfg.GPUs = 2
	}
	if cfg.GPUs < 0 {
		return nil, fmt.Errorf("prefillonly: GPUs must be positive, got %d", cfg.GPUs)
	}
	if cfg.MaxInputLen == 0 {
		cfg.MaxInputLen = 20000
	}
	// Validate routing config before the engines' expensive profile runs.
	var rcfg *router.Config
	if cfg.RoutingPolicy != "" {
		pol, err := router.PolicyByName(cfg.RoutingPolicy)
		if err != nil {
			return nil, err
		}
		rcfg = &router.Config{
			Policy:              pol,
			MaxBacklogSeconds:   cfg.MaxBacklogSeconds,
			ClassBacklogSeconds: cfg.ClassBacklogSeconds,
		}
	} else if cfg.MaxBacklogSeconds != 0 {
		return nil, fmt.Errorf("prefillonly: MaxBacklogSeconds requires a RoutingPolicy")
	} else if len(cfg.ClassBacklogSeconds) != 0 {
		return nil, fmt.Errorf("prefillonly: ClassBacklogSeconds requires a RoutingPolicy")
	} else if cfg.Autoscale != nil {
		return nil, fmt.Errorf("prefillonly: Autoscale requires a RoutingPolicy")
	}
	if len(cfg.ClassWeights) != 0 && cfg.Engine != EnginePrefillOnly {
		return nil, fmt.Errorf("prefillonly: ClassWeights requires the %s engine", EnginePrefillOnly)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("prefillonly: Shards must be >= 0, got %d", cfg.Shards)
	}
	eng := fleet.Engine(cfg.Engine)
	if cfg.GPUs%eng.GPUs() != 0 {
		return nil, fmt.Errorf("prefillonly: %s needs an even GPU count, got %d", cfg.Engine, cfg.GPUs)
	}
	s := &Simulation{tok: tokenizer.New()}
	spec := fleet.Spec{
		Engine:         eng,
		Model:          cfg.Model,
		GPU:            cfg.GPU,
		ProfileMaxLen:  cfg.MaxInputLen,
		HostCacheBytes: cfg.HostCacheBytes,
		Core:           core.Options{Lambda: cfg.Lambda, ClassWeights: cfg.ClassWeights},
		Instances:      cfg.GPUs / eng.GPUs(),
		Router:         rcfg,
		Autoscale:      cfg.Autoscale,
		Shards:         cfg.Shards,
		OnComplete:     func(r Record) { s.records = append(s.records, r) },
	}
	if cfg.TraceSpans != 0 {
		spec.Tracer = trace.New(cfg.TraceSpans)
		spec.SampleSeconds = cfg.TraceSampleSeconds
		if spec.SampleSeconds <= 0 {
			spec.SampleSeconds = 0.5
		}
	}
	if cfg.TimeseriesSeconds > 0 {
		spec.Timeseries = timeseries.New(timeseries.Config{IntervalSeconds: cfg.TimeseriesSeconds})
	}
	f, err := fleet.New(spec)
	if err != nil {
		return nil, err
	}
	s.fleet = f
	return s, nil
}

// Now returns the current simulated time in seconds.
func (s *Simulation) Now() float64 { return s.fleet.Clock().Now() }

// SubmitAt schedules a request's arrival at absolute simulated time t.
// Requests shed by admission control are counted (see Rejected).
// Arrivals submitted in time order cost O(1) each to schedule, as
// SubmitDataset's do; any order is served exactly. A time before Now, NaN
// or +Inf panics.
func (s *Simulation) SubmitAt(t float64, r *Request) {
	r.ArrivalTime = t
	s.offered++
	s.fleet.SubmitAt(t, r)
}

// SubmitText tokenizes a prompt and schedules its arrival at time t,
// returning the created request.
func (s *Simulation) SubmitText(t float64, userID int, prompt string, allowed []string) *Request {
	s.nextID++
	r := &Request{
		ID:            s.nextID,
		UserID:        userID,
		Tokens:        s.tok.Encode(prompt),
		AllowedTokens: allowed,
	}
	s.SubmitAt(t, r)
	return r
}

// SubmitDataset schedules an entire dataset with Poisson arrivals at the
// given request rate.
func (s *Simulation) SubmitDataset(d *Dataset, qps float64, seed int64) error {
	arrivals, err := AssignPoissonArrivals(d, qps, seed)
	if err != nil {
		return err
	}
	s.offered += len(arrivals)
	for _, a := range arrivals {
		s.fleet.SubmitAt(a.Time, a.Req)
	}
	return nil
}

// Run drains the event queue (serving every submitted request) and returns
// the completion records in finish order. It checks the run's accounting
// (every submitted request completed or shed by admission control): a
// routing failure other than an admission shed is a programming error
// (e.g. a policy picking an out-of-range instance) and panics rather than
// being miscounted as load shedding.
func (s *Simulation) Run() []Record {
	s.fleet.Run()
	if err := s.fleet.Check(s.offered); err != nil {
		panic(err)
	}
	return s.records
}

// Records returns the completions so far.
func (s *Simulation) Records() []Record { return s.records }

// Rejected returns the requests shed by admission control so far (always 0
// without a RoutingPolicy and MaxBacklogSeconds).
func (s *Simulation) Rejected() int { return s.fleet.Rejected() }

// RejectedClass returns the requests of one SLO class shed so far.
func (s *Simulation) RejectedClass(c Class) int { return s.fleet.RejectedClass(c) }

// Timeseries returns the windowed collector (nil unless
// TimeseriesSeconds was set).
func (s *Simulation) Timeseries() *timeseries.Collector { return s.fleet.Timeseries() }

// Trace returns the flight recorder (nil unless TraceSpans was set). Its
// WriteTrace exports the run as Chrome trace-event JSON for Perfetto.
func (s *Simulation) Trace() *trace.Recorder { return s.fleet.Tracer() }

// Router returns the routing frontend, never nil. Without a RoutingPolicy
// its policy is the paper's §7.1 assignment, named "firstseen".
func (s *Simulation) Router() *router.Router { return s.fleet.Router() }

// Autoscaler returns the elastic pool controller (nil without an
// Autoscale config).
func (s *Simulation) Autoscaler() *autoscale.Controller { return s.fleet.Autoscaler() }

// CacheHitRate aggregates prefix-cache hit rate across instances,
// released ones included.
func (s *Simulation) CacheHitRate() float64 { return s.fleet.CacheHitRate() }

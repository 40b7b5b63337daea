package prefillonly

import (
	"fmt"
	"net/http"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// ServerConfig configures NewServer. Zero values take the low-end paper
// setup (Llama-3.1-8B on one L4).
type ServerConfig struct {
	// Model is the served model (default Llama31_8B()).
	Model *ModelConfig
	// GPU is the modelled device (default L4()).
	GPU *GPUSpec
	// MaxInputLen is the profile-run length (default 20000).
	MaxInputLen int
	// Lambda is the fairness parameter (default 500).
	Lambda float64
	// Speedup scales simulated time against the wall clock: a request
	// with 2 s of modelled GPU latency returns after 2/Speedup wall
	// seconds (default 1000).
	Speedup float64
	// ModelName is the name reported by /v1/models (defaults to the
	// model config's name).
	ModelName string
	// Instances is the engine instance count (default 1). Requests route
	// by live load and prefix-cache affinity through internal/router.
	Instances int
	// RoutingPolicy selects the multi-instance routing policy: "userhash",
	// "leastloaded" or "affinity" (default). Requires Instances > 1.
	RoutingPolicy string
	// MaxBacklogSeconds enables admission control in routed mode: requests
	// whose projected completion wait exceeds the bound are answered with
	// HTTP 429. Requires Instances > 1.
	MaxBacklogSeconds float64
	// ClassBacklogSeconds overrides MaxBacklogSeconds per SLO class
	// (clients select a class via the slo_class body field or X-SLO-Class
	// header): a batch budget below the interactive bound sheds batch
	// load first. Requires Instances > 1.
	ClassBacklogSeconds map[Class]float64
	// ClassWeights deprioritizes SLO classes in the calibrated scheduler
	// (batch weight > 1 makes batch yield to interactive).
	ClassWeights map[Class]float64
	// Autoscale enables the elastic instance pool (internal/autoscale):
	// the cluster starts at MinInstances engines and scales between that
	// floor and the Instances ceiling from live backlog and admission
	// signals, paying a model-load cold start per scale-up. Requires
	// Instances > 1.
	Autoscale bool
	// MinInstances is the elastic pool's floor (default 1). Requires
	// Autoscale.
	MinInstances int
	// TraceSpans enables the sim-time flight recorder when non-zero: the
	// ring keeps that many recent spans (negative = DefaultMaxSpans).
	// The recorder feeds the /v1/trace endpoint (Perfetto-loadable
	// Chrome trace JSON) and the trace families of /v1/metrics.
	TraceSpans int
	// TimeseriesSeconds enables the windowed sim-time-series collector
	// when positive: throughput, latency quantiles, shed rate, pool and
	// cache gauges, and per-class SLO burn rate aggregated per window of
	// this many simulated seconds, served at /v1/timeseries. Size it
	// relative to Speedup — the server clock free-runs at Speedup sim
	// seconds per wall second, so TimeseriesSeconds = Speedup gives one
	// window per wall second (prefillserve's default).
	TimeseriesSeconds float64
	// ChaosCrashRate, ChaosStragglerRate and ChaosPreemptRate enable the
	// deterministic fault injector (internal/chaos) when positive:
	// instance crashes, slow-node episodes and spot preemptions at these
	// rates per simulated second, with orphaned requests re-admitted
	// through admission under a retry budget and — when Autoscale is on —
	// lost capacity replaced by cold starts. Fault-shed requests answer
	// with HTTP 503 and a Retry-After header. Require Instances > 1.
	ChaosCrashRate     float64
	ChaosStragglerRate float64
	ChaosPreemptRate   float64
	// ChaosSeed seeds the injector's fault-time and victim streams
	// (meaningful only with a chaos rate set; same seed, same faults).
	ChaosSeed int64
}

// Server is the OpenAI-compatible serving frontend over a PrefillOnly
// engine.
type Server struct {
	backend *server.Backend
	handler *server.Handler
}

// ServerResult is a served completion (re-exported from the frontend).
type ServerResult = server.Result

// NewServer builds the engine (profile run included) and its HTTP handler.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Model == nil {
		cfg.Model = Llama31_8B()
	}
	if cfg.GPU == nil {
		cfg.GPU = L4()
	}
	if cfg.MaxInputLen == 0 {
		cfg.MaxInputLen = 20000
	}
	if cfg.ModelName == "" {
		cfg.ModelName = cfg.Model.Name
	}
	chaosCfg := chaos.Config{
		Seed:          cfg.ChaosSeed,
		CrashRate:     cfg.ChaosCrashRate,
		StragglerRate: cfg.ChaosStragglerRate,
		PreemptRate:   cfg.ChaosPreemptRate,
	}
	if cfg.Instances <= 1 && (cfg.RoutingPolicy != "" || cfg.MaxBacklogSeconds != 0 ||
		len(cfg.ClassBacklogSeconds) != 0 || cfg.Autoscale || chaosCfg.Enabled()) {
		return nil, fmt.Errorf("prefillonly: RoutingPolicy, MaxBacklogSeconds, ClassBacklogSeconds, Autoscale and chaos rates require Instances > 1")
	}
	if !cfg.Autoscale && cfg.MinInstances != 0 {
		return nil, fmt.Errorf("prefillonly: MinInstances requires Autoscale")
	}
	if !chaosCfg.Enabled() && cfg.ChaosSeed != 0 {
		return nil, fmt.Errorf("prefillonly: ChaosSeed requires a chaos rate")
	}
	// A nil Policy lets router.New apply its default (AffinityLoad).
	var pol router.Policy
	if cfg.RoutingPolicy != "" {
		var err error
		if pol, err = router.PolicyByName(cfg.RoutingPolicy); err != nil {
			return nil, err
		}
	}
	spec := fleet.Spec{
		Model:         cfg.Model,
		GPU:           cfg.GPU,
		ProfileMaxLen: cfg.MaxInputLen,
		Core:          core.Options{Lambda: cfg.Lambda, ClassWeights: cfg.ClassWeights},
		Instances:     max(cfg.Instances, 1),
		Router: &router.Config{
			Policy:              pol,
			MaxBacklogSeconds:   cfg.MaxBacklogSeconds,
			ClassBacklogSeconds: cfg.ClassBacklogSeconds,
		},
		Chaos: chaosCfg,
	}
	if cfg.Autoscale {
		spec.Autoscale = &autoscale.Config{MinInstances: cfg.MinInstances}
	}
	if cfg.TraceSpans != 0 {
		spec.Tracer = trace.New(cfg.TraceSpans)
	}
	if cfg.TimeseriesSeconds > 0 {
		spec.Timeseries = timeseries.New(timeseries.Config{IntervalSeconds: cfg.TimeseriesSeconds})
	}
	b, err := server.NewBackend(spec, cfg.Speedup)
	if err != nil {
		return nil, err
	}
	return &Server{backend: b, handler: server.NewHandler(b, cfg.ModelName)}, nil
}

// Handler returns the http.Handler exposing /v1/completions, /v1/models,
// /v1/stats, /v1/metrics, /v1/trace, /v1/timeseries and /healthz.
func (s *Server) Handler() http.Handler { return s.handler }

// Trace returns the server's flight recorder (nil unless TraceSpans was
// set).
func (s *Server) Trace() *TraceRecorder { return s.backend.Trace() }

// Timeseries returns a snapshot of the windowed time-series at the
// current sim time; ok is false unless TimeseriesSeconds was set.
func (s *Server) Timeseries() (TimeseriesExport, bool) { return s.backend.Timeseries() }

// Stats returns the live cluster snapshot served at /v1/stats: router
// per-instance loads, the admission tally, and the autoscaler's pool
// state.
func (s *Server) Stats() server.StatsSnapshot { return s.backend.Stats() }

// Submit serves one prompt directly (bypassing HTTP), interactive-class.
func (s *Server) Submit(prompt string, allowed []string, userID int) (ServerResult, error) {
	return s.backend.Submit(prompt, allowed, userID)
}

// SubmitClass is Submit with an explicit SLO class.
func (s *Server) SubmitClass(prompt string, allowed []string, userID int, class Class) (ServerResult, error) {
	return s.backend.SubmitClass(prompt, allowed, userID, class)
}

// Close stops the backend clock.
func (s *Server) Close() { s.backend.Close() }

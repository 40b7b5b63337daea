// Command prefillserve runs the OpenAI-compatible PrefillOnly serving
// frontend on a modelled GPU.
//
// Usage:
//
//	prefillserve [-addr :8080] [-model llama-3.1-8b] [-gpu l4]
//	             [-max-input-len 20000] [-lambda 500] [-speedup 1000]
//	             [-instances 1] [-routing affinity] [-max-backlog 0]
//	             [-batch-max-backlog 0] [-batch-weight 0]
//	             [-autoscale] [-min-instances 1] [-trace] [-timeseries]
//	             [-chaos-crash-rate 0] [-chaos-straggler 0]
//	             [-chaos-preempt 0] [-chaos-seed 1] [-pprof ADDR]
//
// With -autoscale, -instances is the pool ceiling: the cluster starts at
// -min-instances engines and scales elastically from live backlog and
// admission signals, paying a model-load cold start per scale-up. Watch
// the pool at /v1/stats.
//
// Chaos: the -chaos-* rates enable the deterministic fault injector —
// instance crashes, slow-node stragglers and spot preemptions at the
// given events per simulated second. Orphaned requests are re-admitted
// through admission under a retry budget; when the budget runs out the
// request answers 503 with a Retry-After header and a structured body.
// With -autoscale, lost capacity is replaced by cold starts. Fault
// counters show in /v1/stats (faults block), /v1/metrics
// (prefill_faults_total) and, with -trace, as instants in /v1/trace.
//
// Multi-tenant SLO classes: clients label requests with the slo_class
// body field or X-SLO-Class header ("interactive" default, "batch").
// -batch-max-backlog gives the batch class its own (smaller) admission
// budget so batch load sheds before interactive load; -batch-weight > 1
// makes queued batch work yield the GPU to interactive work. Only
// interactive pressure triggers autoscaling.
//
// Then:
//
//	curl -s localhost:8080/v1/completions -d '{
//	  "prompt": "Here is the user profile: ... Your answer is:",
//	  "max_tokens": 1, "allowed_tokens": ["Yes","No"], "user": "u1"
//	}'
//	curl -s localhost:8080/v1/stats
//
// Observability: /v1/stats (JSON cluster snapshot), /v1/metrics
// (Prometheus text format). With -trace, the sim-time flight recorder is
// enabled and /v1/trace serves the recent request lifecycle as Chrome
// trace-event JSON — save it and open in https://ui.perfetto.dev or
// chrome://tracing. With -timeseries, the windowed sim-time-series
// collector is enabled and /v1/timeseries serves per-window throughput,
// latency quantiles, shed rates, fleet gauges and per-class SLO burn
// rate as JSON (-timeseries-interval sets the window width in simulated
// seconds).
//
// Profiling: -pprof ADDR serves net/http/pprof on its own listener at
// ADDR (off by default), so a live server's CPU can be profiled with
// `go tool pprof http://ADDR/debug/pprof/profile`. The API listener never
// serves /debug/pprof/.
//
// SIGINT or SIGTERM drains the server: it stops accepting connections,
// waits for in-flight requests to finish, closes the backend and exits 0.
// A second signal exits at once.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers. There is no write timeout: a request's wall time is its
// simulated latency divided by -speedup, and no constant bounds that.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelName := flag.String("model", "llama-3.1-8b", "model preset (llama-3.1-8b|qwen-32b-fp8|llama-70b-fp8)")
	gpuName := flag.String("gpu", "l4", "GPU preset (l4|a100|h100|h100-nvlink)")
	maxLen := flag.Int("max-input-len", 20000, "profile-run maximum input length")
	lambda := flag.Float64("lambda", 500, "fairness parameter λ")
	speedup := flag.Float64("speedup", 1000, "simulated seconds per wall second")
	instances := flag.Int("instances", 1, "engine instances (>1 routes by load and prefix affinity)")
	routing := flag.String("routing", "affinity", "routing policy for -instances > 1 (userhash|leastloaded|affinity)")
	maxBacklog := flag.Float64("max-backlog", 0, "admission bound in estimated backlog seconds (0 = unlimited)")
	batchBacklog := flag.Float64("batch-max-backlog", 0, "batch-class admission budget in backlog seconds (0 = shared -max-backlog bound)")
	batchWeight := flag.Float64("batch-weight", 0, "batch-class JCT weight in the calibrated scheduler (>1 deprioritizes batch; 0 = class-blind)")
	autoscaleOn := flag.Bool("autoscale", false, "scale the pool elastically between -min-instances and -instances")
	minInstances := flag.Int("min-instances", 1, "elastic pool floor (requires -autoscale)")
	traceOn := flag.Bool("trace", false, "enable the sim-time flight recorder and the /v1/trace endpoint")
	traceSpans := flag.Int("trace-spans", 0, "flight-recorder ring depth (0 = default, requires -trace)")
	tsOn := flag.Bool("timeseries", false, "enable the windowed sim-time-series collector and the /v1/timeseries endpoint")
	tsInterval := flag.Float64("timeseries-interval", 0, "time-series window width in simulated seconds (0 = one wall second, i.e. -speedup sim seconds; requires -timeseries)")
	chaosCrash := flag.Float64("chaos-crash-rate", 0, "instance crashes per simulated second (requires -instances > 1)")
	chaosStraggler := flag.Float64("chaos-straggler", 0, "slow-node straggler onsets per simulated second (requires -instances > 1)")
	chaosPreempt := flag.Float64("chaos-preempt", 0, "spot preemption notices per simulated second (requires -instances > 1)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-injector seed (requires a -chaos-* rate)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, apart from the API (off when empty)")
	flag.Parse()

	m, ok := prefillonly.Models()[*modelName]
	if !ok {
		log.Fatalf("unknown model %q", *modelName)
	}
	g, ok := prefillonly.GPUs()[*gpuName]
	if !ok {
		log.Fatalf("unknown gpu %q", *gpuName)
	}
	scfg := prefillonly.ServerConfig{
		Model:       m,
		GPU:         g,
		MaxInputLen: *maxLen,
		Lambda:      *lambda,
		Speedup:     *speedup,
		Instances:   *instances,
	}
	if *traceOn {
		scfg.TraceSpans = *traceSpans
		if scfg.TraceSpans == 0 {
			scfg.TraceSpans = -1 // recorder default ring depth
		}
	} else if *traceSpans != 0 {
		log.Fatal("-trace-spans requires -trace")
	}
	if *tsOn {
		scfg.TimeseriesSeconds = *tsInterval
		if scfg.TimeseriesSeconds == 0 {
			// Windows are sim-time, and the server clock free-runs at
			// -speedup sim seconds per wall second: default to one window
			// per wall second so the series ticks at human pace.
			scfg.TimeseriesSeconds = *speedup
		}
	} else if *tsInterval != 0 {
		log.Fatal("-timeseries-interval requires -timeseries")
	}
	if *batchWeight != 0 {
		if *batchWeight <= 1 {
			log.Fatal("-batch-weight must exceed 1 (batch yields to interactive)")
		}
		scfg.ClassWeights = map[prefillonly.Class]float64{prefillonly.ClassBatch: *batchWeight}
	}
	if *instances > 1 {
		scfg.RoutingPolicy = *routing
		scfg.MaxBacklogSeconds = *maxBacklog
		if *batchBacklog > 0 {
			scfg.ClassBacklogSeconds = map[prefillonly.Class]float64{prefillonly.ClassBatch: *batchBacklog}
		}
		if *autoscaleOn {
			scfg.Autoscale = true
			scfg.MinInstances = *minInstances
		} else if *minInstances != 1 {
			log.Fatal("-min-instances requires -autoscale")
		}
		if *chaosCrash > 0 || *chaosStraggler > 0 || *chaosPreempt > 0 {
			scfg.ChaosCrashRate = *chaosCrash
			scfg.ChaosStragglerRate = *chaosStraggler
			scfg.ChaosPreemptRate = *chaosPreempt
			scfg.ChaosSeed = *chaosSeed
		} else {
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "chaos-seed" {
					log.Fatal("-chaos-seed requires a -chaos-* rate")
				}
			})
		}
	} else {
		// Reject explicitly-set routing flags rather than silently
		// dropping them on a single-engine server.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "routing", "max-backlog", "batch-max-backlog", "autoscale", "min-instances",
				"chaos-crash-rate", "chaos-straggler", "chaos-preempt", "chaos-seed":
				log.Fatalf("-%s requires -instances > 1", f.Name)
			}
		})
	}
	srv, err := prefillonly.NewServer(scfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prefillserve: %s on %s, MIL profile %d tokens, λ=%g, speedup %gx\n",
		m.Name, g.Name, *maxLen, *lambda, *speedup)
	if *instances > 1 {
		fmt.Printf("prefillserve: %d instances routed by %s policy (max backlog %gs)\n",
			*instances, *routing, *maxBacklog)
	}
	if *batchBacklog > 0 || *batchWeight > 1 {
		fmt.Printf("prefillserve: SLO classes on (batch budget %gs, batch weight %g)\n",
			*batchBacklog, *batchWeight)
	}
	if *autoscaleOn {
		fmt.Printf("prefillserve: autoscaling pool between %d and %d instances (cold start %.2fs)\n",
			*minInstances, *instances, prefillonly.ColdStartSeconds(m, g, 1))
	}
	if *chaosCrash > 0 || *chaosStraggler > 0 || *chaosPreempt > 0 {
		fmt.Printf("prefillserve: chaos on (seed %d; crash %g/s, straggler %g/s, preempt %g/s) — watch /v1/stats faults\n",
			*chaosSeed, *chaosCrash, *chaosStraggler, *chaosPreempt)
	}
	if *traceOn {
		fmt.Println("prefillserve: flight recorder on — fetch /v1/trace and open in https://ui.perfetto.dev")
	}
	if *tsOn {
		fmt.Printf("prefillserve: time-series collector on (%gs windows) — fetch /v1/timeseries\n",
			scfg.TimeseriesSeconds)
	}
	fmt.Printf("prefillserve: listening on %s\n", *addr)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	served := make(chan error, 2) // one send per listener, so neither blocks
	go func() { served <- hs.ListenAndServe() }()
	var ps *http.Server
	if *pprofAddr != "" {
		ps = pprofServer()
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("prefillserve: pprof on %s/debug/pprof/\n", ln.Addr())
		go func() { served <- ps.Serve(ln) }()
	}
	select {
	case err := <-served:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal now terminates at once
	fmt.Println("prefillserve: draining in-flight requests")
	if ps != nil {
		// A profile in progress is cut short rather than waited for.
		ps.Close()
	}
	if err := hs.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
	srv.Close()
}

// pprofServer serves net/http/pprof's handlers on a mux of its own.
// Importing net/http/pprof also registers them on http.DefaultServeMux,
// which neither listener serves.
func pprofServer() *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
}

package server

import (
	"strconv"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Metric family names served by /v1/metrics. Exported through tests and
// greppable from CI, so treat them as a public schema: renaming one is a
// breaking change for scrapers.
const (
	famSimSeconds     = "prefill_sim_seconds"
	famSimEvents      = "prefill_sim_events_total"
	famSimEventRate   = "prefill_sim_events_per_second"
	famAdmission      = "prefill_admission_decisions_total"
	famRejects        = "prefill_admission_rejects_total"
	famQueueDepth     = "prefill_instance_queued_requests"
	famBacklog        = "prefill_instance_backlog_seconds"
	famRouted         = "prefill_instance_routed_requests_total"
	famCacheLookup    = "prefill_cache_lookup_tokens_total"
	famCacheHit       = "prefill_cache_hit_tokens_total"
	famCacheUsed      = "prefill_cache_used_bytes"
	famCacheCapacity  = "prefill_cache_capacity_bytes"
	famPoolSize       = "prefill_pool_size"
	famScaleUps       = "prefill_pool_scale_ups_total"
	famScaleDowns     = "prefill_pool_scale_downs_total"
	famRevives        = "prefill_pool_revives_total"
	famGPUSeconds     = "prefill_pool_gpu_seconds_total"
	famFaults         = "prefill_faults_total"
	famOrphansReroute = "prefill_orphans_rerouted_total"
	famOrphansShed    = "prefill_orphans_shed_total"
	famLatency        = "prefill_request_latency_seconds"
	famTraceSpans     = "prefill_trace_spans_total"
	famTraceDropped   = "prefill_trace_spans_dropped_total"
	famTSWindows      = "prefill_timeseries_windows_total"
)

// Metrics renders a consistent snapshot of the serving cluster as a
// Prometheus registry. Like Stats it holds the backend lock, so every
// family in one scrape reflects the same instant. Families are always
// declared — a configuration that has no samples for one (e.g. no
// autoscaler or no fault injector) still exposes the family header, so
// scrapers see a stable schema.
func (b *Backend) Metrics() *metrics.Registry {
	b.mu.Lock()
	defer b.mu.Unlock()
	reg := metrics.NewRegistry()
	f := b.fleet
	rt := f.Router()
	now := b.stepLocked()
	executed := f.Clock().Executed()

	reg.Family(famSimSeconds, "Simulated time in seconds.", metrics.TypeGauge).Add(now)
	reg.Family(famSimEvents, "Events executed by the simulation kernel.", metrics.TypeCounter).
		Add(float64(executed))
	rate := reg.Family(famSimEventRate,
		"Kernel event throughput: events executed per wall second of uptime.", metrics.TypeGauge)
	if uptime := time.Since(b.started).Seconds(); uptime > 0 {
		rate.Add(float64(executed) / uptime)
	}

	admission := reg.Family(famAdmission,
		"Routing admission decisions by policy, SLO class and decision.", metrics.TypeCounter)
	rejects := reg.Family(famRejects,
		"Admission rejects by policy, SLO class and tripped budget.", metrics.TypeCounter)
	queueDepth := reg.Family(famQueueDepth,
		"Requests routed to the instance and not yet completed.", metrics.TypeGauge)
	backlog := reg.Family(famBacklog,
		"Estimated seconds of queued work on the instance.", metrics.TypeGauge)
	routed := reg.Family(famRouted,
		"Requests ever routed to the instance.", metrics.TypeCounter)

	byClass := rt.Admission().ClassSnapshot()
	for _, pol := range metrics.SortedKeys(byClass) {
		classes := byClass[pol]
		for _, class := range metrics.SortedKeys(classes) {
			c := classes[class]
			labels := func(decision string) []metrics.Label {
				return []metrics.Label{
					{Name: "policy", Value: pol},
					{Name: "class", Value: class},
					{Name: "decision", Value: decision},
				}
			}
			admission.Add(float64(c.Accepted), labels("accepted")...)
			admission.Add(float64(c.Rejected), labels("rejected")...)
		}
	}
	reasons := rt.Admission().ReasonSnapshot()
	for _, pol := range metrics.SortedKeys(reasons) {
		for _, class := range metrics.SortedKeys(reasons[pol]) {
			byReason := reasons[pol][class]
			for _, reason := range metrics.SortedKeys(byReason) {
				rejects.Add(float64(byReason[reason]),
					metrics.Label{Name: "policy", Value: pol},
					metrics.Label{Name: "class", Value: class},
					metrics.Label{Name: "reason", Value: reason})
			}
		}
	}
	infos := rt.InstanceInfos()
	for _, info := range infos {
		inst := metrics.Label{Name: "instance", Value: strconv.Itoa(info.ID)}
		queueDepth.Add(float64(info.Load.QueuedRequests), inst)
		backlog.Add(info.Load.BacklogSeconds, inst)
		routed.Add(float64(info.Load.RoutedRequests), inst)
	}

	lookup := reg.Family(famCacheLookup,
		"Tokens presented to the instance's prefix cache.", metrics.TypeCounter)
	hit := reg.Family(famCacheHit,
		"Tokens the instance's prefix cache served without recompute.", metrics.TypeCounter)
	used := reg.Family(famCacheUsed,
		"Bytes resident in the instance's prefix cache.", metrics.TypeGauge)
	capacity := reg.Family(famCacheCapacity,
		"The instance's prefix-cache pool size in bytes.", metrics.TypeGauge)
	// Live instances, labelled by router ID like the load families; a
	// released instance's series ends with it.
	for i, eng := range rt.Instances() {
		c := eng.Cache()
		if c == nil {
			continue
		}
		st := c.Stats()
		inst := metrics.Label{Name: "instance", Value: strconv.Itoa(infos[i].ID)}
		lookup.Add(float64(st.LookupTokens), inst)
		hit.Add(float64(st.HitTokens), inst)
		used.Add(float64(c.UsedBytes()), inst)
		capacity.Add(float64(c.CapacityBytes()), inst)
	}

	pool := reg.Family(famPoolSize,
		"Routable engine instances (cold-starting additions excluded).", metrics.TypeGauge)
	scaleUps := reg.Family(famScaleUps, "Autoscaler scale-up decisions.", metrics.TypeCounter)
	scaleDowns := reg.Family(famScaleDowns, "Autoscaler drain decisions.", metrics.TypeCounter)
	revives := reg.Family(famRevives,
		"Scale-ups served by undraining a warm instance.", metrics.TypeCounter)
	gpuSeconds := reg.Family(famGPUSeconds,
		"GPU-seconds provisioned (cold starts and drains included).", metrics.TypeCounter)
	pool.Add(float64(rt.Routable()))
	// Monotonic in every mode: the controller's accrued integral when
	// autoscaled, fleet size × sim time for a fixed fleet.
	gpuSeconds.Add(f.GPUSeconds(now))
	if ctl := f.Autoscaler(); ctl != nil {
		st := ctl.Stats()
		scaleUps.Add(float64(st.ScaleUps))
		scaleDowns.Add(float64(st.ScaleDowns))
		revives.Add(float64(st.Revives))
	}

	faults := reg.Family(famFaults,
		"Chaos-injector fault events by kind.", metrics.TypeCounter)
	orphansRerouted := reg.Family(famOrphansReroute,
		"Fault-orphaned requests re-admitted through admission.", metrics.TypeCounter)
	orphansShed := reg.Family(famOrphansShed,
		"Fault-orphaned requests shed (retry budget or re-admission reject).", metrics.TypeCounter)
	if inj := f.Chaos(); inj.Enabled() {
		st := inj.Stats()
		for _, label := range chaos.Labels() {
			faults.Add(float64(st.ByLabel(label)), metrics.Label{Name: "kind", Value: label})
		}
		orphansRerouted.Add(float64(st.Rerouted))
		orphansShed.Add(float64(st.Shed))
	}

	latency := reg.Family(famLatency,
		"End-to-end request latency in simulated seconds by SLO class.", metrics.TypeHistogram)
	for _, class := range sched.Classes() {
		snap := b.latency[class].Snapshot()
		if snap.Count == 0 {
			continue
		}
		latency.AddHistogram(snap, metrics.Label{Name: "class", Value: class.String()})
	}

	spans := reg.Family(famTraceSpans,
		"Spans emitted into the flight recorder.", metrics.TypeCounter)
	droppedF := reg.Family(famTraceDropped,
		"Spans evicted from the flight-recorder ring.", metrics.TypeCounter)
	if rec := f.Tracer(); rec != nil {
		for _, k := range trace.Kinds() {
			if n := rec.Emitted(k); n > 0 {
				spans.Add(float64(n), metrics.Label{Name: "kind", Value: k.String()})
			}
		}
		droppedF.Add(float64(rec.Dropped()))
	}

	tsWindows := reg.Family(famTSWindows,
		"Time-series windows closed by the collector.", metrics.TypeCounter)
	if ts := f.Timeseries(); ts != nil {
		tsWindows.Add(float64(ts.ClosedWindows()))
	}
	return reg
}

package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the Prometheus-text exposition layer: a Registry of metric
// families rendered in the text format (version 0.0.4) that Prometheus
// and its ecosystem scrape. The repository's live state lives in domain
// types (the router's admission tally and loads, cache stats, the
// autoscale controller), so the Registry is deliberately a per-scrape
// rendering buffer — the server builds one under its lock from fresh
// snapshots on every /v1/metrics request — plus Histogram, the one
// persistent accumulator (request latencies must be observed as they
// complete, not derived at scrape time).

// Metric family types in the exposition format.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Label is one name="value" pair. Labels render in the order given, so
// callers keep a stable order for deterministic output.
type Label struct {
	Name  string
	Value string
}

// sample is one rendered time series within a family.
type sample struct {
	suffix string // "" or "_bucket"/"_sum"/"_count" for histograms
	labels []Label
	value  float64
}

// Family is one metric family: a name, help text, a type, and the
// samples added this scrape.
type Family struct {
	Name    string
	Help    string
	Type    string
	samples []sample
}

// Registry is an ordered collection of metric families. It is a
// per-scrape builder: construct, fill, render. Families render in the
// order they were declared.
type Registry struct {
	mu       sync.Mutex
	families []*Family
	byName   map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Family)}
}

// Family declares (or returns the existing) family with the given name.
// Declaring a family with no samples still renders its HELP/TYPE header,
// so scrapers always see the full schema.
func (r *Registry) Family(name, help, typ string) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		return f
	}
	f := &Family{Name: name, Help: help, Type: typ}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Add appends one sample with the given labels.
func (f *Family) Add(value float64, labels ...Label) {
	f.samples = append(f.samples, sample{labels: labels, value: value})
}

// AddHistogram appends a histogram snapshot's _bucket/_sum/_count series
// under the given labels.
func (f *Family) AddHistogram(h HistogramSnapshot, labels ...Label) {
	cum := uint64(0)
	for i, b := range h.Buckets {
		cum += h.Counts[i]
		ls := make([]Label, len(labels), len(labels)+1)
		copy(ls, labels)
		ls = append(ls, Label{"le", formatLe(b)})
		f.samples = append(f.samples, sample{suffix: "_bucket", labels: ls, value: float64(cum)})
	}
	inf := make([]Label, len(labels), len(labels)+1)
	copy(inf, labels)
	inf = append(inf, Label{"le", "+Inf"})
	f.samples = append(f.samples,
		sample{suffix: "_bucket", labels: inf, value: float64(h.Count)},
		sample{suffix: "_sum", labels: labels, value: h.Sum},
		sample{suffix: "_count", labels: labels, value: float64(h.Count)})
}

// formatLe renders a bucket bound the way Prometheus clients do.
func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders the registry in the Prometheus text format. Samples
// within a family keep insertion order (callers iterate sorted keys), so
// output is deterministic.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, f := range r.families {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, f.Help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.samples {
			b.WriteString(f.Name)
			b.WriteString(s.suffix)
			writeLabels(&b, s.labels)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.value))
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func writeLabels(b *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SortedKeys returns a map's keys in sorted order — scrape builders use
// it to render label sets deterministically.
func SortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- histogram ---

// DefLatencyBuckets are the request-latency bucket bounds in seconds,
// spanning sub-10ms cache hits to multi-minute saturated tails.
var DefLatencyBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// Histogram is a fixed-bucket cumulative histogram, safe for concurrent
// observation. Unlike the Registry it is long-lived: observations
// accumulate across a run and snapshot at scrape time.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending
	counts  []uint64  // per-bucket (non-cumulative) counts
	sum     float64
	count   uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("metrics: histogram buckets must be ascending")
		}
	}
	return &Histogram{buckets: buckets, counts: make([]uint64, len(buckets))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	for i, b := range h.buckets {
		if v <= b {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Reset zeroes the histogram's counts and sum, keeping its buckets. The
// time-series engine snapshots and resets one histogram per window, so
// per-window quantiles stream through fixed storage instead of retaining
// every observation.
func (h *Histogram) Reset() {
	h.mu.Lock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.sum = 0
	h.count = 0
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Buckets []float64
	Counts  []uint64 // per-bucket counts, same length as Buckets
	Sum     float64
	Count   uint64
}

// Quantile estimates the p-quantile (0 <= p <= 1) from the snapshot's
// buckets, interpolating linearly within the bucket the quantile falls in
// (the lowest bucket interpolates from 0, the way Prometheus's
// histogram_quantile does). Values past the last finite bound clamp to
// it, and an empty snapshot yields 0. The estimate is exact to bucket
// resolution: it always lands inside the bucket that contains the true
// quantile (the guarantee the windowed-quantile property test pins).
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(s.Count)
	var cum, inBucket uint64
	for i, le := range s.Buckets {
		cum += s.Counts[i]
		if float64(cum) >= rank {
			inBucket = s.Counts[i]
			lo := 0.0
			if i > 0 {
				lo = s.Buckets[i-1]
			}
			if inBucket == 0 {
				return le
			}
			below := float64(cum - inBucket)
			return lo + (le-lo)*((rank-below)/float64(inBucket))
		}
	}
	// The quantile falls in the implicit +Inf bucket: clamp to the last
	// finite bound, the most honest answer fixed buckets can give.
	return s.Buckets[len(s.Buckets)-1]
}

// Snapshot returns a copy of the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Buckets: h.buckets,
		Counts:  make([]uint64, len(h.counts)),
		Sum:     h.sum,
		Count:   h.count,
	}
	copy(s.Counts, h.counts)
	return s
}

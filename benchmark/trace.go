package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Thread IDs of the Chrome trace: the benchmark's own sequence, then one
// track per load-generator worker and one per worker's server handler.
const (
	tidMain    = 1
	tidClient  = 10
	tidHandler = 100
)

// span is one wall-clock interval recorded by benchmark code around a
// call into the program.
type span struct {
	name       string
	tid        int
	start, end time.Duration // since the recorder's epoch
	req        int64         // request ID shared by a request's spans (0: none)
}

// spans keeps a traced repetition's spans in memory until the run ends.
// A nil *spans records nothing, so untraced repetitions share the code.
type spans struct {
	epoch time.Time
	mu    sync.Mutex
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

func (s *spans) since() time.Duration { return time.Since(s.epoch) }

func (s *spans) add(sp span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.list = append(s.list, sp)
	s.mu.Unlock()
}

// begin opens a span on the main track; calling the result closes it.
func (s *spans) begin(name string) func() {
	if s == nil {
		return func() {}
	}
	t0 := s.since()
	return func() { s.add(span{name: name, tid: tidMain, start: t0, end: s.since()}) }
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// write renders the spans as Chrome trace-event JSON, which Perfetto and
// chrome://tracing load. A request's client and handler spans share a
// "req" argument and are joined by a flow arrow; the handler span lands on
// the track of the worker that sent it.
func (s *spans) write(path string, meta map[string]any) error {
	s.mu.Lock()
	list := append([]span(nil), s.list...)
	s.mu.Unlock()
	sort.SliceStable(list, func(i, j int) bool { return list[i].start < list[j].start })
	worker := map[int64]int{}
	for _, sp := range list {
		if sp.req != 0 && sp.tid >= tidClient && sp.tid < tidHandler {
			worker[sp.req] = sp.tid - tidClient
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	names := map[int]string{tidMain: "benchmark"}
	var evs []traceEvent
	for _, sp := range list {
		ev := traceEvent{Name: sp.name, Ph: "X", Ts: us(sp.start), Dur: us(sp.end - sp.start), Pid: 1, Tid: sp.tid}
		if sp.req != 0 {
			ev.Args = map[string]any{"req": sp.req}
		}
		switch {
		case sp.tid == tidHandler:
			ev.Tid = tidHandler + worker[sp.req]
			names[ev.Tid] = "server handler " + strconv.Itoa(worker[sp.req])
			evs = append(evs, traceEvent{Name: "request", Ph: "f", BP: "e", Ts: ev.Ts, Pid: 1, Tid: ev.Tid, ID: sp.req})
		case sp.tid >= tidClient:
			names[sp.tid] = "client " + strconv.Itoa(sp.tid-tidClient)
			evs = append(evs, traceEvent{Name: "request", Ph: "s", Ts: ev.Ts, Pid: 1, Tid: sp.tid, ID: sp.req})
		}
		evs = append(evs, ev)
	}
	for tid, name := range names {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": name}})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ph == "M" && evs[j].Ph != "M" })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{
		"traceEvents": evs, "displayTimeUnit": "ms", "metadata": meta,
	})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// profiled runs fn under the CPU profiler and returns the CPU seconds
// charged to each layer.
func profiled(fn func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	cpu := make(map[string]float64, len(layers))
	for _, l := range layers {
		cpu[l] = 0
	}
	for _, s := range samples {
		cpu[layerOf(s.stack)] += s.seconds
	}
	return cpu, nil
}

// layerOf charges a stack (innermost function first) to the innermost
// frame from the repository or the benchmark: that is how strings and
// unicode time lands in tokenizer and the server's JSON in server.
func layerOf(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/benchmark."):
			return "loadgen"
		case strings.HasPrefix(fn, "repro/internal/"):
			pkg := fn[len("repro/internal/"):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if slices.Contains(layers, pkg) {
				return pkg
			}
			return "other"
		case strings.HasPrefix(fn, "repro."):
			return "other"
		}
	}
	return "runtime"
}

// addLayerCPU stores each layer's CPU seconds as "<layer>.cpu_s".
func addLayerCPU(m map[string]float64, cpu map[string]float64) {
	for _, l := range layers {
		m[l+".cpu_s"] = cpu[l]
	}
}

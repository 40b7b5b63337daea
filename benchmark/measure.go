package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

const (
	// minReps is the fewest timed repetitions a run makes, however short
	// --seconds is, so medians and the repetition digests mean something.
	minReps = 3
	// A run builds the fleet or server at least setupReps times, and for
	// at least setupTime, just to time it; setup_s is the median build.
	setupReps  = 15
	setupTime  = 2 * time.Second
	setupGroup = 100 * time.Millisecond
	mib        = 1 << 20
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readLive is the heap the last GC cycle found live.
func readLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap forces a collection and returns the live heap. Callers keep
// what they measure referenced until afterwards.
func liveHeap() uint64 {
	runtime.GC()
	return readLive()
}

// heapWatch samples, every 10 ms while work runs, the live heap the
// latest GC cycle found, for entry points that release their state on
// return (ChaosRun) or hold little between requests (the server). With
// collect set it runs a collection before each sample.
type heapWatch struct {
	stop chan struct{}
	done chan [2]uint64 // peak, mean
}

func watchHeap(collect bool) *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan [2]uint64, 1)}
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var peak, sum, n uint64
		sample := func() {
			if collect {
				runtime.GC()
			}
			v := readLive()
			peak, sum, n = max(peak, v), sum+v, n+1
		}
		sample()
		for {
			select {
			case <-w.stop:
				sample()
				w.done <- [2]uint64{peak, sum / n}
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return w
}

// result stops the watch and returns the largest and the mean sample.
func (w *heapWatch) result() (peak, mean uint64) {
	close(w.stop)
	r := <-w.done
	return r[0], r[1]
}

// above is how far x exceeds base, in MiB.
func above(x, base uint64) float64 {
	if x <= base {
		return 0
	}
	return float64(x-base) / mib
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Host speed. The benchmark runs on a few cores of a shared machine, and
// the other tenants' load changes how fast the same code runs — the same
// repetition has taken anywhere from 1x to 2x its fastest time, in phases
// lasting seconds to minutes, with user+system CPU rising alongside wall
// time (the VM reports almost no steal time: the program runs slower, it
// does not wait). So every timing is taken between two timings of
// reference(), a fixed computation in the benchmark's own code that no
// change to the program can alter, and scaled by refNominal over the
// geometric mean of the two: what the timing would have read with the
// host running the reference at its nominal speed. The raw timings and
// the scales go into the run record.

// refNominal is reference()'s time, in seconds, on an undisturbed 2-vCPU
// Xeon VM (the host README.md describes); any constant would do, this one
// keeps scaled timings close to raw ones.
const refNominal = 0.0045

// refData is what reference() works on, built once at start-up so that it
// sits in every heap baseline. It holds no pointers and reference()
// allocates nothing, so the program's garbage collection neither slows
// the reference nor is slowed by it.
var refData = newRefData()

type refTables struct {
	m     map[uint64]uint32 // refKeys entries
	keys  []uint64          // unsorted
	order []uint64          // scratch for sorting keys
	sink  uint64
}

const refKeys = 1 << 16 // ~3 MiB in all: past the 2 MiB L2, inside the L3

func newRefData() *refTables {
	r := &refTables{
		m:    make(map[uint64]uint32, refKeys),
		keys: make([]uint64, refKeys), order: make([]uint64, refKeys),
	}
	x := uint64(1)
	for i := range r.keys {
		x = x*6364136223846793005 + 1442695040888963407
		r.keys[i] = x
		r.m[x] = uint32(i)
	}
	return r
}

// reference looks up every key of a map in random bucket order and sorts
// half of the keys, and returns how long that took, in seconds. Hashing,
// scattered loads and data-dependent branches are what the simulator's
// queues, caches and routing tables spend their time on. Of the kinds of
// work tried as a reference — also integer arithmetic and pointer chasing
// through L2, L3 and DRAM-sized cycles — map lookups and sorting, equally
// weighted, tracked the fleet workloads' speed best: over 20 s windows of
// a busy host, a repetition's time scaled this way spread 0.03 (quartile
// distance over the median) where the raw time spread 0.10–0.30. It
// tracks serve-http's closed-loop load too (serve.go).
func reference() float64 {
	r := refData
	t0 := time.Now()
	var x uint64
	for _, k := range r.keys {
		x += uint64(r.m[k])
	}
	half := r.order[:refKeys/2]
	copy(half, r.keys)
	slices.Sort(half)
	r.sink = x + half[x%uint64(len(half))]
	return time.Since(t0).Seconds()
}

// speedometer interleaves reference() with the timed work.
type speedometer struct {
	prev float64 // the latest reference time
}

func newSpeedometer() *speedometer { return &speedometer{prev: measureRef()} }

// measureRef times reference() with no collection running and on warm
// caches: the collection finishes any cycle the timed work left in
// progress, and the first, untimed call brings the reference's tables
// back in after the timed work evicted them. Neither the program's
// garbage nor its memory footprint changes the reading.
func measureRef() float64 {
	runtime.GC()
	reference()
	return reference()
}

// scale times the reference again and returns the factor that brings a
// timing taken since the previous reference to the nominal host speed.
func (s *speedometer) scale() float64 {
	cur := measureRef()
	f := refNominal / math.Sqrt(s.prev*cur)
	s.prev = cur
	return f
}

// repeat runs rep once untimed to warm up (the first repetition on new
// inputs runs measurably slower), then again until seconds have passed
// and at least minReps timed repetitions exist, and sets each timed
// repetition's host-speed scale.
func repeat(seconds float64, rep func(warm bool) (repetition, error)) (warm repetition, timed []repetition, err error) {
	if warm, err = rep(true); err != nil {
		return warm, nil, err
	}
	sm := newSpeedometer()
	start := time.Now()
	for len(timed) < minReps || time.Since(start).Seconds() < seconds {
		r, err := rep(false)
		if err != nil {
			return warm, timed, err
		}
		r.scale = sm.scale()
		timed = append(timed, r)
	}
	return warm, timed, nil
}

// cpuPerReq is a repetition's CPU milliseconds per completed request at
// nominal host speed.
func cpuPerReq(r repetition) float64 { return ms(r.cpu) * r.scale / float64(r.completed) }

func medianCPUPerReq(reps []repetition) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = cpuPerReq(r)
	}
	return median(xs)
}

// endToEndMetrics are a run's end-to-end metrics: the set-up time, the
// medians over the timed repetitions of their throughput, CPU per request
// and latency at nominal host speed, and the median of the heaps.
func endToEndMetrics(setup float64, timed []repetition, heap []float64) map[string]float64 {
	var rps, lat []float64
	for _, r := range timed {
		rps = append(rps, float64(r.completed)/r.wall.Seconds()/r.scale)
		lat = append(lat, r.latMs*r.scale)
	}
	return map[string]float64{
		"setup_s":        setup,
		"req_per_s":      median(rps),
		"cpu_ms_per_req": medianCPUPerReq(timed),
		"heap_live_mib":  median(heap),
		"lat_p50_ms":     median(lat),
	}
}

// setupSeconds times repeated builds and returns the median build time at
// nominal host speed. build returns a function that releases what it
// built. A collection first keeps garbage from input generation out of
// the timed builds.
func setupSeconds(build func() (func(), error)) (float64, error) {
	var xs, group []float64
	runtime.GC()
	sm := newSpeedometer()
	groupStart := time.Now()
	for start := time.Now(); len(xs) < setupReps || time.Since(start) < setupTime; {
		t0 := time.Now()
		release, err := build()
		group = append(group, time.Since(t0).Seconds())
		if err != nil {
			return 0, err
		}
		release()
		// Builds take microseconds to milliseconds: scale them in groups
		// of setupGroup, one reference timing between groups.
		if time.Since(groupStart) >= setupGroup {
			f := sm.scale()
			for _, x := range group {
				xs = append(xs, x*f)
			}
			group, groupStart = group[:0], time.Now()
		}
	}
	if len(group) > 0 {
		f := sm.scale()
		for _, x := range group {
			xs = append(xs, x*f)
		}
	}
	return median(xs), nil
}

// nsPer times fn, repeated until at least 50 ms have passed, and returns
// nanoseconds per unit, where one call of fn does units units of work.
func nsPer(units int, fn func()) float64 {
	if units == 0 {
		return 0
	}
	t0 := time.Now()
	n := 0
	for n == 0 || time.Since(t0) < 50*time.Millisecond {
		fn()
		n++
	}
	return float64(time.Since(t0)) / float64(n*units)
}

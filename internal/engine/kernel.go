package engine

import (
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/sim"
)

// MinEventSeconds derives a sharded kernel's lookahead from the catalogs:
// a conservative lower bound on the spacing between an engine event and
// anything it schedules. The shortest latency any engine prices is a
// single-token pass on the smallest model share an instance runs (a PP=2
// stage, when the model splits evenly; the full model otherwise), floored
// at the fixed collective launch cost. Every other engine-priced latency —
// full passes, TP all-reduces, PP handoffs, spill transfers, autoscale
// cold starts (seconds, not microseconds) — is at least this long.
//
// In the current integration all engine events are shard-local, so
// correctness never depends on this bound (Shard.Post enforces its own);
// the lookahead only sizes the conservative windows, i.e. how often the
// shards synchronize.
func MinEventSeconds(m *model.Config, g *hw.GPU) float64 {
	min := collectiveLatency
	opts := graph.StandardOptions()
	priced := m
	if stage, err := m.Shard(1, 2); err == nil {
		priced = stage
	}
	if dur, err := graph.New(priced, g).EstimateSeconds(graph.PassSpec{Total: 1}, opts); err == nil && dur > min {
		min = dur
	}
	return min
}

// CompletionSinks adapts a run's shared completion sink (router
// accounting + record append — shared, ordered state) to the kernel k. On
// a serial kernel every instance gets the sink directly. On a sharded one
// each instance gets a buffering sink on its shard: completions are
// stamped in shard-emission order and applied to the real sink at the
// window barrier in global (finish time, shard, emission) order, so the
// router's accounting and the record slice see exactly the serial
// kernel's order whenever completion times differ (per-shard completion
// streams are time-monotonic because engines emit at the completion
// event's own time).
//
// Call it once per run; instance i's sink is sinkFor(i), where instance i
// schedules on k.Shard(i % k.Shards()).
func CompletionSinks(k *sim.Sim, sink func(Record)) func(i int) func(Record) {
	if k.Shards() == 0 {
		return func(int) func(Record) { return sink }
	}
	return newCompletionMerger(k, sink).sinkFor
}

// shardCompletions is one shard's barrier buffer, in emission order (the
// deterministic tie-break within a shard). Kept as a value slice: steady
// state reuses the backing array, so buffering a completion costs no
// allocation beyond amortized growth to the per-window peak.
type shardCompletions struct {
	buf []Record
	pos int
}

// completionMerger applies per-shard completion buffers to the shared sink
// at every window barrier, in global finish-time order (ties: shard index,
// then emission order).
type completionMerger struct {
	shards []shardCompletions
	sink   func(Record)
}

func newCompletionMerger(k *sim.Sim, sink func(Record)) *completionMerger {
	if sink == nil {
		panic("engine: nil completion sink")
	}
	m := &completionMerger{shards: make([]shardCompletions, k.Shards()), sink: sink}
	k.OnBarrier(m.flush)
	return m
}

// sinkFor returns instance i's buffering sink on its shard.
func (m *completionMerger) sinkFor(i int) func(Record) {
	sc := &m.shards[i%len(m.shards)]
	return func(r Record) {
		sc.buf = append(sc.buf, r)
	}
}

// flush k-way merges the shard buffers into the sink. Each buffer is
// already finish-time-ordered (a shard's events execute in time order and
// completions are emitted at event time), so one cursor per shard
// suffices; the scan is O(records × shards) with shards bounded by the
// worker count. Buffers keep their capacity across windows.
func (m *completionMerger) flush() {
	for {
		best := -1
		var bestT float64
		for i := range m.shards {
			sc := &m.shards[i]
			if sc.pos >= len(sc.buf) {
				continue
			}
			t := sc.buf[sc.pos].Finish
			if best == -1 || t < bestT {
				best, bestT = i, t
			}
		}
		if best == -1 {
			break
		}
		sc := &m.shards[best]
		m.sink(sc.buf[sc.pos])
		sc.buf[sc.pos] = Record{}
		sc.pos++
	}
	for i := range m.shards {
		sc := &m.shards[i]
		sc.buf = sc.buf[:0]
		sc.pos = 0
	}
}

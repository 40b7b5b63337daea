package engine

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/kvcache"
	"repro/internal/ringbuf"
	"repro/internal/sched"
	"repro/internal/sim"
)

// linkCrossings returns how many times each communicated byte traverses
// the peer link: NVLink is direct GPU-to-GPU; PCIe peer traffic is staged
// through host memory and crosses twice.
func linkCrossings(g *hw.GPU) float64 {
	if g.Link == hw.NVLink {
		return 1
	}
	return 2
}

// collectiveLatency is the fixed per-collective launch/sync cost.
const collectiveLatency = 20e-6

// ppStageImbalance inflates the first pipeline stage: the stages never
// split perfectly (stage 0 also runs the embedding and input plumbing,
// stage 1 the head and sampler, and the synchronous scheduling rounds add
// per-microbatch slack), so the pipeline's bottleneck stage runs ~10%
// longer than layers/2 would suggest (§2.5's pipeline bubbles).
const ppStageImbalance = 1.10

// TensorParallel is the TP=2 baseline: every layer's computation is split
// across two GPUs, stitched together with two all-reduces per layer. It
// halves per-GPU compute and memory at the cost of communication that is
// serialized with compute (§2.5, §5.2).
type TensorParallel struct {
	sim       sim.Clock
	scheduler sched.Scheduler
	lc        lifecycle
	busy      bool
	// cur is the request in service (fast-path completion payload is the
	// engine itself; see tpDone).
	cur *inflight
}

// NewTensorParallel builds the TP=2 baseline (standard prefill, FCFS, full
// KV residency split across both GPUs).
func NewTensorParallel(cfg Config) (*TensorParallel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	shard, err := cfg.Model.Shard(2, 1)
	if err != nil {
		return nil, err
	}
	exec := graph.New(shard, cfg.GPU)
	opts := graph.StandardOptions()
	prof, err := profileOf(&cfg, exec, shard, opts)
	if err != nil {
		return nil, fmt.Errorf("tensor-parallel: %w", err)
	}
	cache, err := kvcache.New(kvcache.Config{
		BlockTokens:   cacheBlockTokens,
		BytesPerToken: cfg.Model.KVBytesPerToken(), // full-depth; halves live on each GPU
		CapacityBytes: 2 * prof.pool,
	})
	if err != nil {
		return nil, err
	}
	ti := cfg.Tracer.NewInstance("tensor-parallel")
	return &TensorParallel{
		sim:       cfg.Sim,
		scheduler: sched.NewFIFO(),
		lc: lifecycle{
			name:       "tensor-parallel",
			cfg:        cfg,
			exec:       exec,
			opts:       opts,
			cache:      cache,
			prof:       prof,
			ti:         ti,
			residentKV: true,
			spillGPUs:  2, // both GPUs overflow their share
		},
	}, nil
}

// Name implements Engine.
func (t *TensorParallel) Name() string { return t.lc.name }

// GPUs implements Engine.
func (t *TensorParallel) GPUs() int { return 2 }

// Cache implements Engine.
func (t *TensorParallel) Cache() *kvcache.Manager { return t.lc.cache }

// commSeconds prices the two all-reduces per layer over the fresh tokens'
// activations.
func (t *TensorParallel) commSeconds(fresh int) float64 {
	if fresh == 0 {
		return 0
	}
	m := t.lc.cfg.Model
	g := t.lc.cfg.GPU
	perAllReduce := float64(fresh) * float64(m.Hidden) * float64(m.ActDType.Bytes())
	ops := 2 * float64(m.Layers)
	return ops*perAllReduce*linkCrossings(g)/g.PeerBWBytes + ops*collectiveLatency
}

// Submit implements Engine.
func (t *TensorParallel) Submit(r *sched.Request) {
	t.scheduler.Enqueue(r)
	t.dispatch()
}

func (t *TensorParallel) dispatch() {
	if t.busy {
		return
	}
	now := t.sim.Now()
	r := t.scheduler.Next(now)
	if r == nil {
		return
	}
	t.busy = true
	inf := t.lc.begin(r, now)
	// Both GPUs spill their half of the overflow concurrently.
	dur := t.lc.estimate(inf) + t.commSeconds(inf.fresh()) +
		spillSeconds(inf.spilled, 2*t.lc.cfg.GPU.HostBWBytes)
	t.cur = inf
	t.sim.AfterFunc(dur, tpDone, t)
}

// tpDone is the zero-alloc completion callback for TensorParallel.
func tpDone(arg any) {
	t := arg.(*TensorParallel)
	inf := t.cur
	t.cur = nil
	t.lc.finish(inf, t.sim.Now())
	t.busy = false
	t.dispatch()
}

// PipelineParallel is the PP=2 baseline: the layers are split into two
// stages on two GPUs. A request flows through stage 0 then stage 1; the
// stages process different requests concurrently, and pipeline bubbles
// appear whenever consecutive requests have unequal lengths (§2.5).
type PipelineParallel struct {
	sim       sim.Clock
	scheduler sched.Scheduler
	lc        lifecycle

	stageBusy [2]bool
	// stage0Cur/stage1Cur hold each stage's in-service request (fast-path
	// completion payload is the engine itself; see ppStage0Done and
	// ppStage1Done).
	stage0Cur, stage1Cur *inflight
	// handoff queues stage-0 completions for stage 1. A ring
	// (internal/ringbuf): the previous `handoff = handoff[1:]` advance
	// retained every finished inflight in the backing array for the life
	// of the engine under sustained pipelining.
	handoff ringbuf.Ring[*inflight]
}

// NewPipelineParallel builds the PP=2 baseline (standard prefill, FCFS,
// full KV residency distributed across stages).
func NewPipelineParallel(cfg Config) (*PipelineParallel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	stage, err := cfg.Model.Shard(1, 2)
	if err != nil {
		return nil, err
	}
	exec := graph.New(stage, cfg.GPU)
	opts := graph.StandardOptions()
	prof, err := profileOf(&cfg, exec, stage, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline-parallel: %w", err)
	}
	cache, err := kvcache.New(kvcache.Config{
		BlockTokens:   cacheBlockTokens,
		BytesPerToken: cfg.Model.KVBytesPerToken(),
		CapacityBytes: 2 * prof.pool,
	})
	if err != nil {
		return nil, err
	}
	ti := cfg.Tracer.NewInstance("pipeline-parallel")
	return &PipelineParallel{
		sim:       cfg.Sim,
		scheduler: sched.NewFIFO(),
		lc: lifecycle{
			name:       "pipeline-parallel",
			cfg:        cfg,
			exec:       exec, // per-stage (half the layers) cost model
			opts:       opts,
			cache:      cache,
			prof:       prof,
			ti:         ti,
			residentKV: true,
			spillGPUs:  2, // both stages overflow their share
		},
	}, nil
}

// Name implements Engine.
func (p *PipelineParallel) Name() string { return p.lc.name }

// GPUs implements Engine.
func (p *PipelineParallel) GPUs() int { return 2 }

// Cache implements Engine.
func (p *PipelineParallel) Cache() *kvcache.Manager { return p.lc.cache }

// Submit implements Engine.
func (p *PipelineParallel) Submit(r *sched.Request) {
	p.scheduler.Enqueue(r)
	p.dispatch0()
}

// handoffSeconds prices streaming the fresh tokens' hidden states between
// stages.
func (p *PipelineParallel) handoffSeconds(fresh int) float64 {
	m := p.lc.cfg.Model
	g := p.lc.cfg.GPU
	bytes := float64(fresh) * float64(m.Hidden) * float64(m.ActDType.Bytes())
	return bytes*linkCrossings(g)/g.PeerBWBytes + collectiveLatency
}

func (p *PipelineParallel) dispatch0() {
	if p.stageBusy[0] {
		return
	}
	now := p.sim.Now()
	r := p.scheduler.Next(now)
	if r == nil {
		return
	}
	p.stageBusy[0] = true
	inf := p.lc.begin(r, now)
	// Each stage pays half the spill; lc.estimate prices one stage's
	// share of the pass on the per-stage cost model.
	dur := ppStageImbalance*p.lc.estimate(inf) + p.handoffSeconds(inf.fresh()) +
		spillSeconds(inf.spilled/2, p.lc.cfg.GPU.HostBWBytes)
	inf.mark = now
	p.stage0Cur = inf
	p.sim.AfterFunc(dur, ppStage0Done, p)
}

// ppStage0Done hands the finished stage-0 pass to stage 1 (zero-alloc
// completion callback).
func ppStage0Done(arg any) {
	p := arg.(*PipelineParallel)
	inf := p.stage0Cur
	p.stage0Cur = nil
	p.stageBusy[0] = false
	now := p.sim.Now()
	p.lc.ti.Stage("pass-stage0", inf.req.ID, inf.req.Class, inf.mark, now)
	inf.mark = now // handoff wait starts here
	p.handoff.PushBack(inf)
	p.dispatch1()
	p.dispatch0()
}

func (p *PipelineParallel) dispatch1() {
	if p.stageBusy[1] || p.handoff.Len() == 0 {
		return
	}
	inf, _ := p.handoff.PopFront()
	p.stageBusy[1] = true
	now := p.sim.Now()
	p.lc.ti.Stage("stage1-wait", inf.req.ID, inf.req.Class, inf.mark, now)
	inf.mark = now
	dur := p.lc.estimate(inf) + spillSeconds(inf.spilled/2, p.lc.cfg.GPU.HostBWBytes)
	p.stage1Cur = inf
	p.sim.AfterFunc(dur, ppStage1Done, p)
}

// ppStage1Done completes the request after its stage-1 pass (zero-alloc
// completion callback).
func ppStage1Done(arg any) {
	p := arg.(*PipelineParallel)
	inf := p.stage1Cur
	p.stage1Cur = nil
	now := p.sim.Now()
	p.lc.ti.Stage("pass-stage1", inf.req.ID, inf.req.Class, inf.mark, now)
	p.lc.finish(inf, now)
	p.stageBusy[1] = false
	p.dispatch1()
}

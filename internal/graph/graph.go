// Package graph models the forward pass of a decoder-only transformer as an
// explicit sequence of tensor allocations and compute steps, executed under
// one of three prefilling strategies:
//
//   - Standard: the conventional single-pass prefill (vLLM/PagedAttention).
//     Every intermediate tensor is materialized at full sequence length and
//     the KV cache of all layers is retained.
//   - Chunked: chunked prefill (Sarathi-Serve). The input is processed in
//     fixed-size chunks through the whole network repeatedly; intermediate
//     tensors are chunk-sized, but the KV cache of all layers must remain
//     resident between chunk passes, and the attention kernel loses
//     efficiency (paper §2.5: ~14% end-to-end at chunk 512 on 20k input).
//   - Hybrid: the paper's hybrid prefilling (§4). Attention layers run at
//     full sequence length in a single pass, while the linear (non-attention)
//     layers run chunk-by-chunk, so the large MLP intermediate tensors exist
//     only at chunk granularity. KV cache is kept for a single layer at a
//     time, enabling suffix discarding.
//
// The executor both estimates wall-clock time (EstimateSeconds, a
// FLOPs/bandwidth model) and replays the pass against a memory.Allocator
// so that peak footprint and Figure-3 style traces are produced by the
// same allocation sequence a real engine would perform.
package graph

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/model"
)

// Mode selects the prefilling strategy.
type Mode int

const (
	// Standard is conventional full-length single-pass prefill.
	Standard Mode = iota
	// Chunked is chunked prefill with full KV retention.
	Chunked
	// Hybrid is the paper's hybrid prefilling.
	Hybrid
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Standard:
		return "standard"
	case Chunked:
		return "chunked"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// KVRetention selects what happens to the KV cache produced by a pass.
type KVRetention int

const (
	// RetainAll keeps the full-depth KV cache of every token resident for
	// the whole pass (conventional engines; required by Chunked mode).
	RetainAll KVRetention = iota
	// RetainOneLayer keeps only the KV cache of the layer currently being
	// computed (PrefillOnly's suffix discarding; valid only for Hybrid and
	// Standard modes, which finish in a single pass).
	RetainOneLayer
)

// Options configures a prefill pass.
type Options struct {
	// Mode is the prefilling strategy.
	Mode Mode
	// ChunkSize is the chunk length in tokens for Chunked and Hybrid
	// modes. Ignored by Standard.
	ChunkSize int
	// KV selects the KV retention policy during the pass.
	KV KVRetention
	// OutputPrealloc enables hybrid prefilling's output-preallocation
	// optimization (§4.3): chunk outputs are written directly into a
	// preallocated full tensor instead of being concatenated afterwards.
	OutputPrealloc bool
	// InPlace enables hybrid prefilling's in-place optimization (§4.3):
	// the output tensor reuses the input tensor's memory when shapes
	// match.
	InPlace bool
}

// DefaultChunkSize is the chunk length used by the paper's chunked-prefill
// measurements (§2.5).
const DefaultChunkSize = 512

// Validate reports configuration errors.
func (o Options) Validate() error {
	if o.Mode != Standard && o.ChunkSize <= 0 {
		return fmt.Errorf("graph: %s mode requires positive ChunkSize, got %d", o.Mode, o.ChunkSize)
	}
	if o.Mode == Chunked && o.KV == RetainOneLayer {
		return fmt.Errorf("graph: chunked prefill cannot discard KV between chunk passes")
	}
	if o.Mode != Hybrid && (o.OutputPrealloc || o.InPlace) {
		return fmt.Errorf("graph: OutputPrealloc/InPlace are hybrid-prefilling optimizations")
	}
	return nil
}

// StandardOptions returns the configuration of the PagedAttention baseline.
func StandardOptions() Options {
	return Options{Mode: Standard, KV: RetainAll}
}

// ChunkedOptions returns the configuration of the chunked-prefill baseline.
func ChunkedOptions(chunk int) Options {
	return Options{Mode: Chunked, ChunkSize: chunk, KV: RetainAll}
}

// HybridOptions returns the full PrefillOnly configuration (both §4.3
// optimizations enabled, one-layer KV retention).
func HybridOptions(chunk int) Options {
	return Options{
		Mode:           Hybrid,
		ChunkSize:      chunk,
		KV:             RetainOneLayer,
		OutputPrealloc: true,
		InPlace:        true,
	}
}

// PassSpec describes one prefill request presented to the executor.
type PassSpec struct {
	// Total is the request length in tokens, including any cached prefix.
	Total int
	// Cached is the number of leading tokens whose KV cache is already
	// resident in the prefix cache (their projections and attention rows
	// are not recomputed, but their KV must be readable by attention).
	Cached int
}

// Fresh returns the number of tokens actually computed by the pass.
func (p PassSpec) Fresh() int {
	if p.Cached >= p.Total {
		return 0
	}
	return p.Total - p.Cached
}

// Validate reports malformed specs.
func (p PassSpec) Validate() error {
	if p.Total <= 0 {
		return fmt.Errorf("graph: pass total must be positive, got %d", p.Total)
	}
	if p.Cached < 0 || p.Cached > p.Total {
		return fmt.Errorf("graph: cached (%d) must be in [0, total=%d]", p.Cached, p.Total)
	}
	return nil
}

// Result summarizes one executed pass.
type Result struct {
	// Seconds is the modelled wall-clock duration of the pass.
	Seconds float64
	// PeakBytes is the peak working memory of the pass beyond model
	// weights and any prefix cache residency (temporary tensors plus
	// retained fresh KV, per the retention policy).
	PeakBytes int64
	// KVRetainedBytes is the fresh KV cache the pass leaves behind
	// (full-depth under RetainAll, zero under RetainOneLayer — PrefillOnly
	// copies what it wants to keep into the prefix-cache region
	// separately).
	KVRetainedBytes int64
	// Trace is the allocator trace when tracing was requested.
	Trace []memory.TracePoint
}

// Executor runs modelled prefill passes for one model on one device.
type Executor struct {
	model *model.Config
	gpu   *hw.GPU
}

// New constructs an executor. The model may be a sharded view.
func New(m *model.Config, g *hw.GPU) *Executor {
	return &Executor{model: m, gpu: g}
}

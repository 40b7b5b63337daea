package server

import (
	"math"
	"slices"

	"repro/internal/tokenizer"
)

// Score produces the constrained output distribution for a prompt: a
// softmax over pseudo-logits derived deterministically from the prompt
// tokens and each allowed token. The engine's performance never depends on
// logit values (see DESIGN.md §1), but applications need stable,
// prompt-sensitive scores — the same prompt always yields the same
// P(Yes)/P(No), and the probabilities sum to 1 (§2.3).
func Score(prompt []uint64, allowed []string) map[string]float64 {
	if len(allowed) == 0 {
		return nil
	}
	// Fold the prompt into a context hash.
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for _, t := range prompt {
		h ^= t
		h *= prime
	}
	// Deterministic order for reproducible float accumulation; a repeated
	// token is one outcome, so it enters the softmax once.
	opts := append([]string(nil), allowed...)
	slices.Sort(opts)
	opts = slices.Compact(opts)
	logits := make([]float64, len(opts))
	maxLogit := math.Inf(-1)
	for i, opt := range opts {
		x := h ^ tokenizer.TokenID(opt)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		// Map to a logit in [-3, 3].
		logits[i] = float64(x%6000)/1000 - 3
		if logits[i] > maxLogit {
			maxLogit = logits[i]
		}
	}
	var sum float64
	exps := make([]float64, len(opts))
	for i, l := range logits {
		exps[i] = math.Exp(l - maxLogit)
		sum += exps[i]
	}
	out := make(map[string]float64, len(opts))
	for i, opt := range opts {
		out[opt] = exps[i] / sum
	}
	return out
}

package graph

import (
	"errors"

	"repro/internal/memory"
)

// Fits reports whether a request of n tokens (no prefix hit) can be
// prefetched within the given working-memory budget (device memory minus
// weights minus any reserved prefix-cache space). It enforces the budget
// during the replay, so a pass that OOMs partway reports false exactly as a
// real engine would.
func (e *Executor) Fits(n int, opts Options, budgetBytes int64) (bool, error) {
	if budgetBytes <= 0 {
		return false, nil
	}
	mem := memory.New(budgetBytes)
	_, err := e.Run(PassSpec{Total: n}, opts, mem, false)
	if errors.Is(err, memory.ErrOutOfMemory) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// MaxInputLength binary-searches the largest request length that fits in
// the working-memory budget — the paper's MIL metric (Table 2, Figure 10).
// Results are rounded down to milGranularity tokens, matching the paper's
// reporting granularity.
func (e *Executor) MaxInputLength(opts Options, budgetBytes int64) (int, error) {
	const milGranularity = 1000
	const upperCap = 8 << 20 // 8M tokens: far above any real MIL

	ok, err := e.Fits(1, opts, budgetBytes)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	// Exponential probe for an upper bound.
	hi := 1024
	for hi < upperCap {
		ok, err := e.Fits(hi, opts, budgetBytes)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		hi *= 2
	}
	lo := hi / 2
	if hi >= upperCap {
		return upperCap, nil
	}
	// Invariant: lo fits, hi does not.
	for hi-lo > milGranularity/2 {
		mid := (lo + hi) / 2
		ok, err := e.Fits(mid, opts, budgetBytes)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo / milGranularity * milGranularity, nil
}

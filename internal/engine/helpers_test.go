package engine

import (
	"repro/internal/graph"
	"repro/internal/kvcache"
	"repro/internal/model"
)

func hybridOpts() graph.Options {
	return graph.HybridOptions(graph.DefaultChunkSize)
}

// poolTokens returns the whole blocks c's pool holds, in tokens, when
// its blocks hold m's full-depth KV.
func poolTokens(c *kvcache.Manager, m *model.Config) int {
	blockTokens := c.BlockTokens()
	return int(c.CapacityBytes()/(m.KVBytesPerToken()*int64(blockTokens))) * blockTokens
}

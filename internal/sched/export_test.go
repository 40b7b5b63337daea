package sched

// FilterBuckets is the hash index filter's bucket count, for the external
// tests.
const FilterBuckets = filterBuckets

// FilterCount returns the hash index filter's count in bucket b and the
// number of hashes the index holds.
func (c *Calibrated) FilterCount(b int) (count, hashes int) {
	return int(c.idx.watched[b]), len(c.idx.slot)
}

package sched

import "fmt"

// FilterBuckets is the hash index filter's bucket count, for the external
// tests.
const FilterBuckets = filterBuckets

// FilterCount returns the hash index filter's count in bucket b and the
// number of hashes the index holds.
func (c *Calibrated) FilterCount(b int) (count, hashes int) {
	return int(c.idx.watched[b]), len(c.idx.slot)
}

// CalibratedSweep is the original O(queue × blocks) implementation of
// Algorithm 1, kept as the reference oracle for Calibrated's equivalence
// tests: every decision recomputes key(r) = w(class)·jct(r) +
// λ/1000·ArrivalTime for every waiting request and pops the minimum,
// breaking ties by enqueue order exactly as Calibrated does.
type CalibratedSweep struct {
	jct     JCTFunc
	lambda  float64
	weights [NumClasses]float64
	q       []*entry
	seq     uint64
}

// NewCalibratedSweep returns the reference sweep scheduler.
func NewCalibratedSweep(jct JCTFunc, lambda float64) *CalibratedSweep {
	if jct == nil {
		panic("sched: CalibratedSweep requires a JCT function")
	}
	return &CalibratedSweep{jct: jct, lambda: lambda, weights: uniformWeights()}
}

// SetClassWeights mirrors Calibrated.SetClassWeights on the reference
// sweep (shared implementation, so oracle and production semantics
// cannot drift).
func (c *CalibratedSweep) SetClassWeights(w map[Class]float64) {
	setClassWeights(&c.weights, w, len(c.q))
}

// Name implements Scheduler.
func (c *CalibratedSweep) Name() string {
	return fmt.Sprintf("srjf-calibrated-sweep(λ=%g)", c.lambda)
}

// Enqueue implements Scheduler.
func (c *CalibratedSweep) Enqueue(r *Request) {
	c.q = append(c.q, &entry{r: r, seq: c.seq})
	c.seq++
}

// Len implements Scheduler.
func (c *CalibratedSweep) Len() int { return len(c.q) }

// Next implements Scheduler: one full calibration sweep, then the minimum
// entry (key, then longer request, then enqueue order) wins.
func (c *CalibratedSweep) Next(now float64) *Request {
	best := -1
	for i, e := range c.q {
		e.key = classWeight(c.weights, e.r.Class)*c.jct(e.r) + c.lambda/1000*e.r.ArrivalTime
		if best < 0 || entryLess(e, c.q[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	e := c.q[best]
	c.q[best] = c.q[len(c.q)-1]
	c.q[len(c.q)-1] = nil
	c.q = c.q[:len(c.q)-1]
	// Mirror Calibrated's estimate stamping so the oracle stays
	// behaviorally identical.
	e.r.EstimatedSeconds = (e.key - c.lambda/1000*e.r.ArrivalTime) / classWeight(c.weights, e.r.Class)
	return e.r
}

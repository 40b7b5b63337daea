package metrics

import "sync"

// AdmissionCount is the accept/reject tally of one routing policy.
type AdmissionCount struct {
	Accepted int64
	Rejected int64
}

// Total returns accepted + rejected.
func (c AdmissionCount) Total() int64 { return c.Accepted + c.Rejected }

// AcceptRate returns the fraction of decisions that admitted the request
// (1 when no decisions have been recorded).
func (c AdmissionCount) AcceptRate() float64 {
	if c.Total() == 0 {
		return 1
	}
	return float64(c.Accepted) / float64(c.Total())
}

// Admission tallies routing admission decisions per policy and SLO class.
// The zero value is ready to use. Per-policy counts (Policy, Snapshot)
// are the sum over classes. It is safe for concurrent use: the HTTP
// frontend routes from multiple goroutines, while simulation routers are
// single-threaded.
type Admission struct {
	mu sync.Mutex
	// classes maps policy → class label → tally; it is the single source
	// of truth, with the aggregate views summing over it.
	classes map[string]map[string]AdmissionCount
	// reasons maps policy → class label → reject reason → count. It
	// stratifies the Rejected side of classes: which budget a shed
	// tripped (the aggregate backlog bound vs a per-class budget).
	reasons map[string]map[string]map[string]int64
}

func (a *Admission) bump(policy, class string, accepted bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.classes == nil {
		a.classes = make(map[string]map[string]AdmissionCount)
	}
	byClass := a.classes[policy]
	if byClass == nil {
		byClass = make(map[string]AdmissionCount)
		a.classes[policy] = byClass
	}
	c := byClass[class]
	if accepted {
		c.Accepted++
	} else {
		c.Rejected++
	}
	byClass[class] = c
}

// AcceptClass records an admitted request under a policy and SLO class.
func (a *Admission) AcceptClass(policy, class string) { a.bump(policy, class, true) }

// RejectClass records a shed request under a policy and SLO class.
func (a *Admission) RejectClass(policy, class string) { a.bump(policy, class, false) }

// RejectClassReason records a shed request and which admission budget it
// tripped (see router.RejectError.Reason). The class tally and the
// per-reason tally move together, so summing reasons recovers the
// class's Rejected count.
func (a *Admission) RejectClassReason(policy, class, reason string) {
	a.bump(policy, class, false)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.reasons == nil {
		a.reasons = make(map[string]map[string]map[string]int64)
	}
	byClass := a.reasons[policy]
	if byClass == nil {
		byClass = make(map[string]map[string]int64)
		a.reasons[policy] = byClass
	}
	byReason := byClass[class]
	if byReason == nil {
		byReason = make(map[string]int64)
		byClass[class] = byReason
	}
	byReason[reason]++
}

// ReasonSnapshot returns a copy of the per-reason reject tallies:
// policy → class → reason → count. Policies that only recorded
// reasonless rejects are absent.
func (a *Admission) ReasonSnapshot() map[string]map[string]map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]map[string]map[string]int64, len(a.reasons))
	for policy, byClass := range a.reasons {
		cm := make(map[string]map[string]int64, len(byClass))
		for class, byReason := range byClass {
			rm := make(map[string]int64, len(byReason))
			for reason, n := range byReason {
				rm[reason] = n
			}
			cm[class] = rm
		}
		out[policy] = cm
	}
	return out
}

// Policy returns the tally of one policy, summed over classes.
func (a *Admission) Policy(policy string) AdmissionCount {
	a.mu.Lock()
	defer a.mu.Unlock()
	var sum AdmissionCount
	for _, c := range a.classes[policy] {
		sum.Accepted += c.Accepted
		sum.Rejected += c.Rejected
	}
	return sum
}

// Class returns the tally of one policy restricted to one SLO class.
func (a *Admission) Class(policy, class string) AdmissionCount {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.classes[policy][class]
}

// Snapshot returns a copy of every policy's tally, summed over classes.
func (a *Admission) Snapshot() map[string]AdmissionCount {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]AdmissionCount, len(a.classes))
	for policy, byClass := range a.classes {
		var sum AdmissionCount
		for _, c := range byClass {
			sum.Accepted += c.Accepted
			sum.Rejected += c.Rejected
		}
		out[policy] = sum
	}
	return out
}

// ClassSnapshot returns a copy of every policy's per-class tallies.
func (a *Admission) ClassSnapshot() map[string]map[string]AdmissionCount {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]map[string]AdmissionCount, len(a.classes))
	for policy, byClass := range a.classes {
		m := make(map[string]AdmissionCount, len(byClass))
		for class, c := range byClass {
			m[class] = c
		}
		out[policy] = m
	}
	return out
}

package fleet

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/ringbuf"
	"repro/internal/sched"
)

// maxTrackedUsers bounds the §7.1 frontend's per-user table so
// million-user traffic cannot grow it without limit. Past the bound the
// longest-tracked user is forgotten (FIFO) and re-assigned round-robin on
// its next request, giving up that user's prefix locality.
const maxTrackedUsers = 1 << 20

// firstSeen is the paper's §7.1 user-id routing: every request from one
// user goes to the same instance, and users are assigned to instances in
// round-robin order of first appearance, so per-user prefix caches stay
// local to one device. It is a fixed fleet's frontend when the Spec has
// no Router. The router could run it: as a router.Policy the same
// assignment gives identical records on every Figure 6 and Figure 9
// -small fleet, and those sweeps then take at most 3% longer than here
// (medians of 5 runs on a 2-vCPU host), the router's per-request load
// and pending-chain accounting being the difference.
type firstSeen struct {
	instances []engine.Engine
	byUser    map[int]int
	// order holds tracked user IDs in assignment order (FIFO eviction).
	// A ring rather than a slice advanced with `order = order[1:]`:
	// under churn at the cap, the slice advance would regrow the backing
	// array on every append while pinning every evicted slot.
	order    ringbuf.Ring[int]
	next     int
	maxUsers int
}

func newFirstSeen(instances []engine.Engine) (*firstSeen, error) {
	if len(instances) == 0 {
		return nil, fmt.Errorf("fleet: need at least one instance")
	}
	return &firstSeen{
		instances: instances,
		byUser:    make(map[int]int),
		maxUsers:  maxTrackedUsers,
	}, nil
}

// setMaxTrackedUsers overrides the table bound, evicting down to it.
func (c *firstSeen) setMaxTrackedUsers(n int) error {
	if n <= 0 {
		return fmt.Errorf("fleet: max tracked users must be positive, got %d", n)
	}
	c.maxUsers = n
	for len(c.byUser) > c.maxUsers {
		c.evictOldest()
	}
	return nil
}

// evictOldest forgets the longest-tracked user.
func (c *firstSeen) evictOldest() {
	if user, ok := c.order.PopFront(); ok {
		delete(c.byUser, user)
	}
}

// route returns the instance index a user's requests go to, assigning new
// users round-robin.
func (c *firstSeen) route(userID int) int {
	if idx, ok := c.byUser[userID]; ok {
		return idx
	}
	if len(c.byUser) >= c.maxUsers {
		c.evictOldest()
	}
	idx := c.next
	c.next = (c.next + 1) % len(c.instances)
	c.byUser[userID] = idx
	c.order.PushBack(userID)
	return idx
}

// submit hands a request to its user's instance.
func (c *firstSeen) submit(r *sched.Request) {
	c.instances[c.route(r.UserID)].Submit(r)
}

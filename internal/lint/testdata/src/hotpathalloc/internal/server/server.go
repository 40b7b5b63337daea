// Package server exercises hotpathalloc in the HTTP frontend, which
// steps the simulator on every served request: a closure handed to a sim
// scheduling call is flagged, the AtFunc fast path is not. The server is
// outside the deterministic set, so only the closure rule applies.
package server

import "hotpathalloc/internal/sim"

type backend struct {
	clock sim.Clock
	woken int
}

// wake is the sanctioned shape: a package-level callback with the
// backend as payload.
func wake(arg any) { arg.(*backend).woken++ }

func (b *backend) submit(t float64) {
	b.clock.AtFunc(t, wake, b) // fast path: ok

	b.clock.At(t, func() { b.woken++ }) // want "function literal passed to sim.At"
}

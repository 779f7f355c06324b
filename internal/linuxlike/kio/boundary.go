package kio

import (
	"safelinux/internal/linuxlike/kbase"
)

// Crash containment for the async I/O engine: Submit — the boundary
// every caller crosses to reach the engine — routes through an
// installable containment hook. A fault contained there (or a
// quarantined engine compartment) must not strand submitters blocked
// in Ticket.Wait, so the SQEs not yet handed to a worker are completed
// immediately with the boundary's typed errno through the normal CQE
// path: the Ticket observes the failure exactly like a device error.
// Satisfied by *compartment.Compartment via its Run method.
type Boundary interface {
	Run(op string, fn func() kbase.Errno) kbase.Errno
}

type boundaryBox struct{ b Boundary }

// SetBoundary installs (or, with nil, removes) the containment
// boundary around batch submission.
func (e *Engine) SetBoundary(b Boundary) {
	if b == nil {
		e.boundary.Store(nil)
		return
	}
	e.boundary.Store(&boundaryBox{b: b})
}

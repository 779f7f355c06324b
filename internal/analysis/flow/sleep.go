package flow

import (
	"go/types"
	"strings"
)

// sleeperSeeds is the curated cross-package list of functions that can
// sleep (block the calling goroutine), keyed by types.Func.FullName.
// It covers the kernel tree's blocking primitives: the sleeping lock
// acquisitions in kbase, the journal's commit/checkpoint gates, the
// kio completion waiters, and the standard library's blocking
// synchronization. Channel operations are handled structurally by the
// call-graph builder, not listed here.
var sleeperSeeds = map[string]bool{
	// kbase sleeping locks (might_sleep in the acquire path).
	"(*safelinux/internal/linuxlike/kbase.KMutex).Lock":       true,
	"(*safelinux/internal/linuxlike/kbase.KMutex).LockNested": true,
	"(*safelinux/internal/linuxlike/kbase.RWSem).DownRead":    true,
	"(*safelinux/internal/linuxlike/kbase.RWSem).DownWrite":   true,
	// journal gates: Begin blocks while a commit/checkpoint round is
	// gated; Commit/Checkpoint wait for the round to finish.
	"(*safelinux/internal/linuxlike/journal.Journal).Begin":      true,
	"(*safelinux/internal/linuxlike/journal.Journal).Commit":     true,
	"(*safelinux/internal/linuxlike/journal.Journal).Checkpoint": true,
	// kio: Wait blocks on completions; Submit takes the dispatch lock
	// and runs the batch's barriers before it returns.
	"(*safelinux/internal/linuxlike/kio.Ticket).Wait":  true,
	"(*safelinux/internal/linuxlike/kio.Batch).Submit": true,
	// Standard library blocking synchronization.
	"(*sync.Mutex).Lock":     true,
	"(*sync.RWMutex).Lock":   true,
	"(*sync.RWMutex).RLock":  true,
	"(*sync.Cond).Wait":      true,
	"(*sync.WaitGroup).Wait": true,
	"(*sync.Once).Do":        true,
	"time.Sleep":             true,
}

// IsSleeperSeed reports whether fn is on the curated sleeper list.
func IsSleeperSeed(fn *types.Func) bool {
	return fn != nil && sleeperSeeds[fn.FullName()]
}

// SleepOracle answers "can calling fn sleep?" for one package: a
// function may sleep if it is a seed, performs a channel operation,
// makes a dynamic call (unknown callee — conservative may-sleep), or
// transitively calls anything that does. Cross-package static callees
// are consulted against the seed list only; an unlisted external
// function is assumed non-sleeping. That is the deliberate soundness
// gap of a per-package graph — the seed list must name every blocking
// primitive an analyzed package can reach in one hop, and DESIGN.md
// documents the caveat.
type SleepOracle struct {
	cg       *CallGraph
	maySleep map[*types.Func]bool
}

// NewSleepOracle computes the may-sleep fixpoint over cg.
func NewSleepOracle(cg *CallGraph) *SleepOracle {
	o := &SleepOracle{cg: cg, maySleep: make(map[*types.Func]bool)}
	// Seed: intrinsic reasons to sleep.
	for fn, n := range cg.Nodes {
		if n.Dynamic || n.ChanOp {
			o.maySleep[fn] = true
			continue
		}
		for callee := range n.Callees {
			if IsSleeperSeed(callee) {
				o.maySleep[fn] = true
				break
			}
		}
	}
	// Propagate over in-package edges to a fixpoint. Recursion is
	// just a cycle here: a recursive function sleeps only if
	// something on the cycle has an intrinsic reason to.
	for changed := true; changed; {
		changed = false
		for fn, n := range cg.Nodes {
			if o.maySleep[fn] {
				continue
			}
			for callee := range n.Callees {
				if o.maySleep[callee] {
					o.maySleep[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return o
}

// MaySleep reports whether calling fn can block. Functions outside
// the analyzed package answer via the seed list.
func (o *SleepOracle) MaySleep(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if o.maySleep[fn] {
		return true
	}
	if _, inPkg := o.cg.Nodes[fn]; inPkg {
		return false
	}
	return IsSleeperSeed(fn)
}

// SleepReason returns a short human-readable reason why fn may sleep
// ("" when it may not): the name of a reached sleeper seed, "channel
// operation", or "dynamic call" — the first found on a DFS so the
// diagnostic can point at the root cause.
func (o *SleepOracle) SleepReason(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if _, inPkg := o.cg.Nodes[fn]; !inPkg {
		if IsSleeperSeed(fn) {
			return shortName(fn)
		}
		return ""
	}
	if !o.maySleep[fn] {
		return ""
	}
	seen := make(map[*types.Func]bool)
	return o.reason(fn, seen)
}

func (o *SleepOracle) reason(fn *types.Func, seen map[*types.Func]bool) string {
	if seen[fn] {
		return ""
	}
	seen[fn] = true
	n := o.cg.Nodes[fn]
	if n == nil {
		if IsSleeperSeed(fn) {
			return shortName(fn)
		}
		return ""
	}
	for callee := range n.Callees {
		if IsSleeperSeed(callee) {
			return shortName(callee)
		}
	}
	if n.ChanOp {
		return "channel operation"
	}
	if n.Dynamic {
		return "dynamic call (unknown callee, assumed to sleep)"
	}
	for callee := range n.Callees {
		if o.maySleep[callee] {
			if r := o.reason(callee, seen); r != "" {
				return callee.Name() + " -> " + r
			}
		}
	}
	return ""
}

// shortName trims the module path from a FullName for diagnostics:
// "(*safelinux/internal/linuxlike/kbase.KMutex).Lock" -> "(*kbase.KMutex).Lock".
func shortName(fn *types.Func) string {
	name := fn.FullName()
	for {
		i := strings.IndexByte(name, '/')
		if i < 0 {
			return name
		}
		j := strings.LastIndexByte(name[:i], '*')
		k := strings.LastIndexByte(name[:i], '(')
		start := 0
		if j >= 0 {
			start = j + 1
		} else if k >= 0 {
			start = k + 1
		}
		name = name[:start] + name[i+1:]
	}
}

// Package kio is an io_uring-style block I/O engine over the simulated
// device stack: callers enqueue read/write/flush submission-queue
// entries (SQEs) on a Batch, and Submit issues them inline on the
// submitting goroutine (write runs go through the device plug, so each
// shard lock is taken once per run) and publishes every completion as
// a CQE into the submitter's Ticket for Wait/Err-style joins. Every
// backend here completes synchronously, so like io_uring's inline
// issue there is no worker hop; Submit returns with its batch done.
//
// The engine exists to turn the paper's §4.3 performance claim into a
// measured number: ownership-sharing interfaces are semantically
// equivalent to message passing but avoid the copies. The legacy
// submit path (Batch.Write) defensively copies the payload exactly
// once, like every synchronous blockdev.Write does; the ownership
// path (Batch.WriteOwned) instead *moves* an own.Owned page into the
// engine — the caller's handles go stale at the move, the engine
// fulfils the model-1 free obligation at completion and hands back a
// fresh page in the CQE — and the payload reaches the device's
// durable image with zero copies. Stats().BytesCopied and
// CopiesAvoided count both paths, so the claim is counter-verified
// rather than asserted.
//
// Barrier SQEs (Batch.Barrier) are the io_uring IO_DRAIN analogue: a
// barrier flushes the device only after every SQE dispatched before
// it, from any batch, has completed. Batches dispatch one at a time
// under the engine's dispatch lock and complete before it is
// released, so the drain holds by construction. The journal's commit
// hangs its commit-record ordering off exactly this.
package kio

import (
	"sync"
	"sync/atomic"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/own"
)

// Tracepoints (args documented in DESIGN.md's catalog).
var (
	tpSubmit   = ktrace.New("kio:submit")   // a0=block, a1=op
	tpComplete = ktrace.New("kio:complete") // a0=block, a1=errno
	tpBarrier  = ktrace.New("kio:barrier")  // a1=flush errno
)

// OpBatch is the latency-plane op for one submit→wait batch (exported
// so the journal's batched commit and the buffer cache's async sync
// can span their batches as children of the caller's trace).
var OpBatch = ktrace.NewOp("kio:batch")

// Op is the SQE operation code.
type Op uint8

// SQE operation codes.
const (
	OpRead  Op = iota // read one block into the caller's buffer
	OpWrite           // write one block (copying or ownership-move)
	OpFlush           // barrier: drain, then device flush
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	}
	return "?"
}

// Backend is the device the engine drives — the same shape as
// spec.DiskLike, so both the raw blockdev and the verified-stack
// AxiomaticDisk plug in. When the concrete backend additionally
// implements WriteOwned (zero-copy submission) or Plug (batched
// shard-grouped submission), the engine detects and uses those fast
// paths dynamically.
type Backend interface {
	BlockSize() int
	Blocks() uint64
	Read(block uint64, buf []byte) kbase.Errno
	Write(block uint64, data []byte) kbase.Errno
	Flush() kbase.Errno
}

// ownedWriter is the optional zero-copy submission fast path
// (blockdev.Device implements it).
type ownedWriter interface {
	WriteOwned(block uint64, data []byte) kbase.Errno
}

// plugger is the optional batched-submission fast path
// (blockdev.Device implements it).
type plugger interface {
	Plug() *blockdev.Plug
}

// Config tunes an Engine.
type Config struct {
	// Checker, when set, supplies the ownership checker used to mint
	// the fresh pages WriteOwned completions return. When nil, owned
	// completions return no page (CQE.Page is the zero handle).
	Checker *own.Checker
}

// Stats counts engine activity. BytesCopied/CopiesPerformed cover the
// legacy copying submit path; CopiesAvoided counts ownership-move
// submits that would each have copied one block on that path — the
// §4.3 zero-copy claim is the pair (CopiesAvoided > 0, BytesCopied
// unchanged).
type Stats struct {
	Submitted       uint64 // SQEs accepted
	Completed       uint64 // CQEs published
	Merged          uint64 // duplicate-block writes merged at submit
	Batches         uint64 // Submit calls that dispatched at least one SQE
	Barriers        uint64 // flush SQEs executed
	BytesCopied     uint64 // payload bytes copied by Batch.Write
	CopiesPerformed uint64 // Batch.Write submissions (one copy each)
	CopiesAvoided   uint64 // Batch.WriteOwned submissions (zero copies)
}

// CQE is one completion-queue entry.
type CQE struct {
	Op    Op
	Block uint64
	User  uint64 // the submitter's tag, returned verbatim
	Err   kbase.Errno
	// Page is a fresh owned page handed back on ownership-move write
	// completions (when the engine has a Checker): the submitter gave
	// up its page at WriteOwned, the engine freed the moved cell at
	// completion, and this replaces it — the recycling half of the
	// message-passing protocol. The zero handle otherwise.
	Page own.Owned[[]byte]
	// Merged marks a write completed by being superseded: a later
	// write to the same block in the same batch absorbed it before it
	// reached the device (write-cache semantics — only a barrier
	// promises durability).
	Merged bool
}

// sqe is one submission-queue entry, engine-internal.
type sqe struct {
	op     Op
	block  uint64
	user   uint64
	buf    []byte // read destination or write payload (engine-owned for writes)
	owned  bool   // write payload arrived by ownership move
	merged bool   // superseded at enqueue; completes without device I/O
	page   own.Owned[[]byte]
	t      *Ticket
	idx    int   // slot in t.results
	tNs    int64 // submit timestamp for the sqe latency histogram (0 = unsampled)
	done   bool  // completed; a contained fault fails only the SQEs without it
}

// Engine is the async I/O engine. All methods are safe for concurrent
// use; individual Batches are single-goroutine state.
type Engine struct {
	cfg     Config
	backend Backend
	ow      ownedWriter // nil when backend lacks the zero-copy path
	pl      plugger     // nil when backend lacks the plug path

	// mu is the dispatch lock. Submit holds it while it issues a
	// batch to the device and completes it, so batches dispatch in one
	// global order and a barrier follows every SQE dispatched before
	// it; Close holds it to mark the engine closed.
	mu     sync.Mutex
	closed bool

	// boundary, when installed, wraps batch submission in a
	// crash-containment compartment (see boundary.go).
	boundary atomic.Pointer[boundaryBox]

	submitted atomic.Uint64
	completed atomic.Uint64
	merged    atomic.Uint64
	batches   atomic.Uint64
	barriers  atomic.Uint64
	copied    atomic.Uint64
	copies    atomic.Uint64
	avoided   atomic.Uint64

	// sqeHist is the submit-to-complete latency distribution of
	// sampled SQEs (see ktrace.TimingSample), exported as the
	// kio.sqe_ns histogram metric.
	sqeHist *ktrace.Histogram
}

// New returns an engine over backend.
func New(backend Backend, cfg Config) *Engine {
	e := &Engine{cfg: cfg, backend: backend, sqeHist: ktrace.NewHistogram()}
	if ow, ok := backend.(ownedWriter); ok {
		e.ow = ow
	}
	if pl, ok := backend.(plugger); ok {
		e.pl = pl
	}
	return e
}

// BlockSize returns the backend's block size.
func (e *Engine) BlockSize() int { return e.backend.BlockSize() }

// Close shuts the engine. No dispatch is in flight while Close holds
// the dispatch lock, so nothing is left to drain; submissions after
// Close complete immediately with ENODEV.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Submitted:       e.submitted.Load(),
		Completed:       e.completed.Load(),
		Merged:          e.merged.Load(),
		Batches:         e.batches.Load(),
		Barriers:        e.barriers.Load(),
		BytesCopied:     e.copied.Load(),
		CopiesPerformed: e.copies.Load(),
		CopiesAvoided:   e.avoided.Load(),
	}
}

// CollectMetrics enumerates the engine counters for the ktrace metrics
// registry (register with m.Register("kio", e.CollectMetrics)).
func (e *Engine) CollectMetrics(emit func(name string, value uint64)) {
	s := e.Stats()
	emit("submitted", s.Submitted)
	emit("completed", s.Completed)
	emit("merged", s.Merged)
	emit("batches", s.Batches)
	emit("barriers", s.Barriers)
	emit("bytes_copied", s.BytesCopied)
	emit("copies_performed", s.CopiesPerformed)
	emit("copies_avoided", s.CopiesAvoided)
}

// dispatch issues batch in order on the submitting goroutine, under
// the dispatch lock. Consecutive writes accumulate in a device plug
// (one shard-lock acquisition per shard per run), drained before any
// read so the read observes them through the device cache exactly as
// the synchronous call sequence would, and before any barrier, which
// then flushes. Every SQE is complete when dispatch returns.
func (e *Engine) dispatch(batch []*sqe) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		for _, s := range batch {
			e.complete(s, kbase.ENODEV)
		}
		return
	}
	var plug *blockdev.Plug
	var plugged []*sqe
	unplug := func() {
		if len(plugged) == 0 {
			return
		}
		results, _ := plug.Unplug()
		for k, s := range plugged {
			e.complete(s, results[k])
		}
		plugged = plugged[:0]
	}
	for _, s := range batch {
		switch s.op {
		case OpRead:
			unplug()
			e.complete(s, e.backend.Read(s.block, s.buf))
		case OpFlush:
			unplug()
			err := e.backend.Flush()
			tpBarrier.Emit(0, 0, uint64(err))
			e.barriers.Add(1)
			e.complete(s, err)
		case OpWrite:
			if e.pl != nil {
				if plug == nil {
					plug = e.pl.Plug()
				}
				if err := plug.WriteOwned(s.block, s.buf); err != kbase.EOK {
					e.complete(s, err)
					continue
				}
				plugged = append(plugged, s)
				continue
			}
			if e.ow != nil {
				e.complete(s, e.ow.WriteOwned(s.block, s.buf))
			} else {
				// Copying backend: it copies internally; the engine
				// still submitted without one.
				e.complete(s, e.backend.Write(s.block, s.buf))
			}
		}
	}
	unplug()
}

// SQEHist returns the engine's submit-to-complete latency histogram.
func (e *Engine) SQEHist() *ktrace.Histogram { return e.sqeHist }

// noteLatency records a sampled SQE's submit-to-complete time.
func (e *Engine) noteLatency(s *sqe) {
	if s.tNs != 0 {
		e.sqeHist.Record(uint64(ktrace.NowNs() - s.tNs))
	}
}

// complete publishes one completion into the submitter's Ticket.
func (e *Engine) complete(s *sqe, err kbase.Errno) {
	s.done = true
	e.noteLatency(s)
	cqe := CQE{Op: s.op, Block: s.block, User: s.user, Err: err, Merged: s.merged}
	if s.owned {
		// Model-1 obligation: the engine received ownership at submit
		// and must free it; a fresh page goes back in the CQE so the
		// submitter's pool stays whole.
		s.page.Free()
		if e.cfg.Checker != nil {
			cqe.Page = own.New(e.cfg.Checker, "kio:page", make([]byte, e.backend.BlockSize()))
		}
	}
	if s.merged {
		e.merged.Add(1)
	}
	e.completed.Add(1)
	if tpComplete.Enabled() {
		tpComplete.Emit(0, s.block, uint64(err))
	}
	s.t.deliver(s.idx, cqe)
}

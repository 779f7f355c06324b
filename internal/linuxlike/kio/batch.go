package kio

import (
	"sync"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/own"
)

// Batch is a submission queue under construction: enqueue SQEs, then
// Submit to dispatch them. A Batch is single-goroutine state; Submit
// may be called repeatedly (each call dispatches the SQEs enqueued
// since the last one) and every call returns the same Ticket, whose
// Wait joins everything submitted through the batch.
type Batch struct {
	e       *Engine
	pending []*sqe
	t       *Ticket
	// lastWrite maps block -> index in t's submit order of the most
	// recent un-superseded write, for duplicate-block merge. A read
	// of the block or a barrier pins earlier writes (clears the
	// entry): the read must observe the earlier write through the
	// device cache, and a barrier promises its durability.
	lastWrite map[uint64]*sqe
}

// NewBatch starts an empty batch.
func (e *Engine) NewBatch() *Batch {
	return &Batch{e: e, t: newTicket(), lastWrite: make(map[uint64]*sqe)}
}

// Read enqueues a read of block into buf, which must be exactly one
// block long and stay untouched until the SQE completes. user is
// returned verbatim in the CQE.
func (b *Batch) Read(block uint64, buf []byte, user uint64) kbase.Errno {
	if len(buf) != b.e.backend.BlockSize() {
		return kbase.EINVAL
	}
	if block >= b.e.backend.Blocks() {
		return kbase.EINVAL
	}
	delete(b.lastWrite, block)
	b.enqueue(&sqe{op: OpRead, block: block, user: user, buf: buf})
	return kbase.EOK
}

// Write enqueues a write of data to block on the legacy copying path:
// the batch copies data now (the caller may reuse the buffer
// immediately), exactly the one defensive copy every synchronous
// blockdev.Write performs. Stats().BytesCopied accounts it.
func (b *Batch) Write(block uint64, data []byte, user uint64) kbase.Errno {
	if len(data) != b.e.backend.BlockSize() {
		return kbase.EINVAL
	}
	if block >= b.e.backend.Blocks() {
		return kbase.EINVAL
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b.e.copied.Add(uint64(len(cp)))
	b.e.copies.Add(1)
	b.enqueueWrite(&sqe{op: OpWrite, block: block, user: user, buf: cp})
	return kbase.EOK
}

// WriteOwned enqueues a write of an owned page on the zero-copy path:
// ownership moves into the engine (the caller's handles go stale at
// this call, per sharing model 1), the payload slice travels to the
// device without a copy, and the completion CQE returns a fresh page.
// The page must hold exactly one block.
func (b *Batch) WriteOwned(block uint64, page own.Owned[[]byte], user uint64) kbase.Errno {
	if block >= b.e.backend.Blocks() {
		return kbase.EINVAL
	}
	moved := page.Move()
	if !moved.Valid() {
		return kbase.EINVAL // stale/freed/borrowed handle; violation already recorded
	}
	var buf []byte
	moved.Read(func(p []byte) { buf = p })
	if len(buf) != b.e.backend.BlockSize() {
		// Wrong-size page: the engine owns it now and must not leak
		// it. Free and reject.
		moved.Free()
		return kbase.EINVAL
	}
	b.e.avoided.Add(1)
	b.enqueueWrite(&sqe{op: OpWrite, block: block, user: user, buf: buf, owned: true, page: moved})
	return kbase.EOK
}

// Barrier enqueues a flush SQE with a completion dependency on every
// SQE dispatched before it, from any batch (IO_DRAIN semantics): the
// flush runs once all earlier work has completed, making every earlier
// write durable before anything after the barrier starts.
func (b *Batch) Barrier(user uint64) {
	clear(b.lastWrite)
	b.enqueue(&sqe{op: OpFlush, user: user})
}

// enqueueWrite enqueues a write SQE, merging a duplicate-block
// predecessor: if an earlier write to the same block is still pending
// in this batch with no read of the block or barrier between, the
// earlier SQE completes immediately as Merged (its payload can never
// be observed — the device write cache is last-write-wins and no
// barrier pinned it).
func (b *Batch) enqueueWrite(s *sqe) {
	if prev, ok := b.lastWrite[s.block]; ok {
		for i, p := range b.pending {
			if p == prev {
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				prev.merged = true
				b.e.complete(prev, kbase.EOK)
				break
			}
		}
	}
	b.lastWrite[s.block] = s
	b.enqueue(s)
}

func (b *Batch) enqueue(s *sqe) {
	s.t = b.t
	s.idx = b.t.addSlot()
	if ktrace.TimingSample() {
		s.tNs = ktrace.NowNs()
	}
	b.pending = append(b.pending, s)
	b.e.submitted.Add(1)
	if tpSubmit.Enabled() {
		tpSubmit.Emit(0, s.block, uint64(s.op))
	}
}

// Submit issues every SQE enqueued since the last Submit and returns
// the batch's Ticket with all of them completed. Submitting on a
// closed engine completes the SQEs with ENODEV; a containment boundary
// that rejects the dispatch (contained fault, quarantined engine)
// completes every SQE not yet completed with its typed errno, so no
// submitter is left blocked in Wait and none completes twice.
func (b *Batch) Submit() *Ticket {
	if len(b.pending) == 0 {
		return b.t
	}
	batch := b.pending
	b.pending = nil
	clear(b.lastWrite)
	run := func() kbase.Errno {
		b.e.batches.Add(1)
		b.e.dispatch(batch)
		return kbase.EOK
	}
	box := b.e.boundary.Load()
	if box == nil {
		run()
		return b.t
	}
	if err := box.b.Run("submit", run); err != kbase.EOK {
		for _, s := range batch {
			if !s.done {
				b.e.complete(s, err)
			}
		}
	}
	return b.t
}

// Ticket joins a batch's completions: Wait blocks until every SQE
// submitted through the batch so far has completed and returns the
// CQEs in submit order.
type Ticket struct {
	mu      sync.Mutex
	cond    *sync.Cond
	results []CQE
	done    int
}

func newTicket() *Ticket {
	t := &Ticket{}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (t *Ticket) addSlot() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.results = append(t.results, CQE{})
	return len(t.results) - 1
}

func (t *Ticket) deliver(idx int, cqe CQE) {
	t.mu.Lock()
	t.results[idx] = cqe
	t.done++
	if t.done == len(t.results) {
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

// Wait blocks until all SQEs submitted so far complete, then returns
// their CQEs in submit order. The slice is shared across Wait calls;
// callers must not mutate it.
func (t *Ticket) Wait() []CQE {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.done != len(t.results) {
		t.cond.Wait()
	}
	return t.results
}

// Err waits for completion and returns the first non-EOK result in
// submit order (EOK when everything succeeded).
func (t *Ticket) Err() kbase.Errno {
	for _, cqe := range t.Wait() {
		if cqe.Err != kbase.EOK {
			return cqe.Err
		}
	}
	return kbase.EOK
}

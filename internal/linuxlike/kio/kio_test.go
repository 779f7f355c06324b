package kio

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/safety/own"
)

func testEngine(t *testing.T, blocks uint64, cfg Config) (*Engine, *blockdev.Device) {
	t.Helper()
	dev := blockdev.New(blockdev.Config{Blocks: blocks, BlockSize: 64, Rng: kbase.NewRng(7)})
	e := New(dev, cfg)
	t.Cleanup(e.Close)
	return e, dev
}

func fill(n int, b byte) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func TestWriteReadRoundTrip(t *testing.T) {
	e, _ := testEngine(t, 32, Config{})
	b := e.NewBatch()
	want := fill(e.BlockSize(), 0xAB)
	if err := b.Write(3, want, 1); err != kbase.EOK {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, e.BlockSize())
	if err := b.Read(3, got, 2); err != kbase.EOK {
		t.Fatalf("Read: %v", err)
	}
	cqes := b.Submit().Wait()
	if len(cqes) != 2 {
		t.Fatalf("got %d CQEs, want 2", len(cqes))
	}
	for i, cqe := range cqes {
		if cqe.Err != kbase.EOK {
			t.Fatalf("CQE %d: %v", i, cqe.Err)
		}
	}
	if cqes[0].User != 1 || cqes[1].User != 2 {
		t.Fatalf("user tags out of order: %d, %d", cqes[0].User, cqes[1].User)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read after write through the engine mismatched")
	}
}

func TestBarrierMakesWritesDurable(t *testing.T) {
	e, dev := testEngine(t, 32, Config{})
	b := e.NewBatch()
	payload := make(map[uint64][]byte)
	for blk := uint64(0); blk < 20; blk++ {
		payload[blk] = fill(e.BlockSize(), byte(blk+1))
		if err := b.Write(blk, payload[blk], blk); err != kbase.EOK {
			t.Fatalf("Write(%d): %v", blk, err)
		}
	}
	b.Barrier(99)
	if err := b.Submit().Err(); err != kbase.EOK {
		t.Fatalf("batch: %v", err)
	}
	// Every write was flushed by the barrier: a crash that drops the
	// write cache must not lose them.
	dev.CrashApplyNone()
	buf := make([]byte, e.BlockSize())
	for blk, want := range payload {
		if err := dev.Read(blk, buf); err != kbase.EOK {
			t.Fatalf("Read(%d): %v", blk, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("block %d not durable after barrier", blk)
		}
	}
	if got := e.Stats().Barriers; got != 1 {
		t.Fatalf("Barriers = %d, want 1", got)
	}
}

func TestZeroCopyOwnershipPath(t *testing.T) {
	ck := own.NewChecker(own.PolicyRecord)
	e, dev := testEngine(t, 32, Config{Checker: ck})

	page := own.New(ck, "test:page", fill(e.BlockSize(), 0x5A))
	b := e.NewBatch()
	if err := b.WriteOwned(7, page, 1); err != kbase.EOK {
		t.Fatalf("WriteOwned: %v", err)
	}
	// Ownership moved at the call: the caller's handle is stale now.
	if page.Valid() {
		t.Fatal("submitter handle still valid after ownership-move submit")
	}
	b.Barrier(2)
	cqes := b.Submit().Wait()
	if cqes[0].Err != kbase.EOK {
		t.Fatalf("write CQE: %v", cqes[0].Err)
	}
	// The completion returns a fresh page, which the submitter now owns
	// (and is obliged to free).
	if !cqes[0].Page.Valid() {
		t.Fatal("owned completion carries no replacement page")
	}
	cqes[0].Page.Free()

	st := e.Stats()
	if st.CopiesAvoided != 1 {
		t.Fatalf("CopiesAvoided = %d, want 1", st.CopiesAvoided)
	}
	if st.BytesCopied != 0 || st.CopiesPerformed != 0 {
		t.Fatalf("ownership path copied: BytesCopied=%d CopiesPerformed=%d",
			st.BytesCopied, st.CopiesPerformed)
	}
	buf := make([]byte, e.BlockSize())
	dev.Read(7, buf)
	if !bytes.Equal(buf, fill(e.BlockSize(), 0x5A)) {
		t.Fatal("moved payload did not reach the device")
	}
	if n := ck.Count(); n != 0 {
		t.Fatalf("checker recorded %d violations: %v", n, ck.Violations())
	}
	if leaks := ck.CheckLeaks(); len(leaks) != 0 {
		t.Fatalf("ownership path leaked: %v", leaks)
	}
}

func TestCopyPathCountsCopies(t *testing.T) {
	e, _ := testEngine(t, 32, Config{})
	b := e.NewBatch()
	data := fill(e.BlockSize(), 0x11)
	for blk := uint64(0); blk < 5; blk++ {
		b.Write(blk, data, blk)
	}
	if err := b.Submit().Err(); err != kbase.EOK {
		t.Fatalf("batch: %v", err)
	}
	st := e.Stats()
	if st.CopiesPerformed != 5 {
		t.Fatalf("CopiesPerformed = %d, want 5", st.CopiesPerformed)
	}
	if want := uint64(5 * e.BlockSize()); st.BytesCopied != want {
		t.Fatalf("BytesCopied = %d, want %d", st.BytesCopied, want)
	}
	// The caller's buffer is reusable immediately: mutate it and check
	// the device kept the original payload.
	b2 := e.NewBatch()
	b2.Write(10, data, 0)
	data[0] = 0xFF
	b2.Barrier(0)
	if err := b2.Submit().Err(); err != kbase.EOK {
		t.Fatalf("batch2: %v", err)
	}
	got := make([]byte, e.BlockSize())
	b3 := e.NewBatch()
	b3.Read(10, got, 0)
	if err := b3.Submit().Err(); err != kbase.EOK {
		t.Fatalf("read: %v", err)
	}
	if got[0] != 0x11 {
		t.Fatal("copying path aliased the caller's buffer")
	}
}

func TestWriteOwnedWrongSizeFreesPage(t *testing.T) {
	ck := own.NewChecker(own.PolicyRecord)
	e, _ := testEngine(t, 32, Config{Checker: ck})
	page := own.New(ck, "bad:page", make([]byte, 3))
	b := e.NewBatch()
	if err := b.WriteOwned(1, page, 0); err != kbase.EINVAL {
		t.Fatalf("wrong-size WriteOwned: %v, want EINVAL", err)
	}
	if leaks := ck.CheckLeaks(); len(leaks) != 0 {
		t.Fatalf("rejected page leaked: %v", leaks)
	}
	// A stale handle (already moved) is rejected and recorded.
	p2 := own.New(ck, "stale:page", make([]byte, e.BlockSize()))
	moved := p2.Move()
	if err := b.WriteOwned(1, p2, 0); err != kbase.EINVAL {
		t.Fatalf("stale WriteOwned: %v, want EINVAL", err)
	}
	if ck.CountKind(own.VUseAfterMove) == 0 {
		t.Fatal("stale-handle submit recorded no use-after-move violation")
	}
	moved.Free()
}

func TestDuplicateWriteMerge(t *testing.T) {
	e, dev := testEngine(t, 32, Config{})
	b := e.NewBatch()
	b.Write(5, fill(e.BlockSize(), 0x01), 1)
	b.Write(5, fill(e.BlockSize(), 0x02), 2) // supersedes the first
	b.Barrier(3)
	cqes := b.Submit().Wait()
	if !cqes[0].Merged {
		t.Fatal("superseded write not marked Merged")
	}
	if cqes[1].Merged {
		t.Fatal("surviving write marked Merged")
	}
	if e.Stats().Merged != 1 {
		t.Fatalf("Merged = %d, want 1", e.Stats().Merged)
	}
	buf := make([]byte, e.BlockSize())
	dev.Read(5, buf)
	if buf[0] != 0x02 {
		t.Fatal("merge did not keep the last write")
	}
	// A read between duplicate writes pins the earlier one: both must
	// execute, and the read observes the first payload.
	b2 := e.NewBatch()
	got := make([]byte, e.BlockSize())
	b2.Write(6, fill(e.BlockSize(), 0x0A), 1)
	b2.Read(6, got, 2)
	b2.Write(6, fill(e.BlockSize(), 0x0B), 3)
	cqes = b2.Submit().Wait()
	for i, cqe := range cqes {
		if cqe.Merged {
			t.Fatalf("CQE %d merged across a read of the block", i)
		}
		if cqe.Err != kbase.EOK {
			t.Fatalf("CQE %d: %v", i, cqe.Err)
		}
	}
	if got[0] != 0x0A {
		t.Fatal("read between duplicate writes saw the wrong payload")
	}
	// A barrier also pins: the first write's durability was promised.
	b3 := e.NewBatch()
	b3.Write(7, fill(e.BlockSize(), 0x0C), 1)
	b3.Barrier(2)
	b3.Write(7, fill(e.BlockSize(), 0x0D), 3)
	cqes = b3.Submit().Wait()
	if cqes[0].Merged {
		t.Fatal("write merged across a barrier")
	}
}

func TestErrorReporting(t *testing.T) {
	e, dev := testEngine(t, 32, Config{})
	dev.MarkBad(4)
	b := e.NewBatch()
	b.Write(3, fill(e.BlockSize(), 1), 1)
	b.Write(4, fill(e.BlockSize(), 1), 2)
	b.Write(5, fill(e.BlockSize(), 1), 3)
	t1 := b.Submit()
	if err := t1.Err(); err != kbase.EIO {
		t.Fatalf("Err = %v, want EIO", err)
	}
	cqes := t1.Wait()
	if cqes[0].Err != kbase.EOK || cqes[1].Err != kbase.EIO || cqes[2].Err != kbase.EOK {
		t.Fatalf("per-CQE errors wrong: %v %v %v", cqes[0].Err, cqes[1].Err, cqes[2].Err)
	}
	// Enqueue-time validation.
	if err := b.Write(99, fill(e.BlockSize(), 1), 0); err != kbase.EINVAL {
		t.Fatalf("out-of-range Write: %v", err)
	}
	if err := b.Read(1, make([]byte, 3), 0); err != kbase.EINVAL {
		t.Fatalf("short Read: %v", err)
	}
}

func TestIncrementalSubmitSharedTicket(t *testing.T) {
	e, _ := testEngine(t, 64, Config{})
	b := e.NewBatch()
	b.Write(1, fill(e.BlockSize(), 1), 1)
	t1 := b.Submit()
	b.Write(2, fill(e.BlockSize(), 2), 2)
	t2 := b.Submit()
	if t1 != t2 {
		t.Fatal("Submit returned distinct tickets for one batch")
	}
	cqes := t2.Wait()
	if len(cqes) != 2 {
		t.Fatalf("ticket joined %d CQEs, want 2", len(cqes))
	}
	if cqes[0].User != 1 || cqes[1].User != 2 {
		t.Fatal("CQEs out of submit order")
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Blocks: 64, BlockSize: 64, Rng: kbase.NewRng(7)})
	e := New(dev, Config{})
	b := e.NewBatch()
	for blk := uint64(0); blk < 32; blk++ {
		b.Write(blk, fill(e.BlockSize(), byte(blk)), blk)
	}
	tk := b.Submit()
	e.Close()
	// The batch completed inside Submit, before Close.
	if err := tk.Err(); err != kbase.EOK {
		t.Fatalf("pre-Close batch: %v", err)
	}
	// New submissions fail fast.
	b2 := e.NewBatch()
	b2.Write(1, fill(e.BlockSize(), 1), 0)
	if err := b2.Submit().Err(); err != kbase.ENODEV {
		t.Fatalf("post-Close submit: %v, want ENODEV", err)
	}
	e.Close() // idempotent
}

// TestConcurrentBatches hammers the engine from many goroutines, each
// with its own batch and disjoint block range — the -race target for
// the dispatch lock and ticket delivery.
func TestConcurrentBatches(t *testing.T) {
	ck := own.NewChecker(own.PolicyRecord)
	e, _ := testEngine(t, 1024, Config{Checker: ck})
	const gor = 8
	const perG = 16
	var wg sync.WaitGroup
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * 100)
			for round := 0; round < perG; round++ {
				b := e.NewBatch()
				for blk := base; blk < base+10; blk++ {
					if round%2 == 0 {
						page := own.New(ck, "stress:page", fill(e.BlockSize(), byte(round)))
						if err := b.WriteOwned(blk, page, blk); err != kbase.EOK {
							t.Errorf("WriteOwned: %v", err)
							return
						}
					} else {
						if err := b.Write(blk, fill(e.BlockSize(), byte(round)), blk); err != kbase.EOK {
							t.Errorf("Write: %v", err)
							return
						}
					}
				}
				b.Barrier(0)
				cqes := b.Submit().Wait()
				for _, cqe := range cqes {
					if cqe.Err != kbase.EOK {
						t.Errorf("CQE: %v", cqe.Err)
					}
					if cqe.Page.Valid() {
						cqe.Page.Free()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := ck.Count(); n != 0 {
		t.Fatalf("checker recorded %d violations: %v", n, ck.Violations()[:min(5, n)])
	}
	if leaks := ck.CheckLeaks(); len(leaks) != 0 {
		t.Fatalf("%d pages leaked", len(leaks))
	}
	st := e.Stats()
	if st.Completed < st.Submitted {
		t.Fatalf("completed %d < submitted %d", st.Completed, st.Submitted)
	}
}

// TestPerBlockOrderAcrossBatches verifies writes to one block from
// successive batches apply in submit order.
func TestPerBlockOrderAcrossBatches(t *testing.T) {
	e, dev := testEngine(t, 16, Config{})
	var last *Ticket
	for i := 0; i < 50; i++ {
		b := e.NewBatch()
		b.Write(3, fill(e.BlockSize(), byte(i)), uint64(i))
		last = b.Submit()
	}
	last.Wait()
	b := e.NewBatch()
	b.Barrier(0)
	b.Submit().Wait()
	buf := make([]byte, e.BlockSize())
	dev.Read(3, buf)
	if buf[0] != 49 {
		t.Fatalf("block 3 holds write %d, want 49 (per-block order broken)", buf[0])
	}
}

func TestBackendWithoutFastPaths(t *testing.T) {
	// A Backend that is only spec.DiskLike-shaped: no WriteOwned, no
	// Plug. The engine must fall back to plain Write/Read.
	dev := blockdev.New(blockdev.Config{Blocks: 32, BlockSize: 64, Rng: kbase.NewRng(7)})
	e := New(plainBackend{dev}, Config{})
	defer e.Close()
	b := e.NewBatch()
	want := fill(e.BlockSize(), 0x7E)
	b.Write(2, want, 1)
	b.Barrier(2)
	if err := b.Submit().Err(); err != kbase.EOK {
		t.Fatalf("batch: %v", err)
	}
	got := make([]byte, e.BlockSize())
	dev.Read(2, got)
	if !bytes.Equal(got, want) {
		t.Fatal("plain-backend write lost")
	}
}

type plainBackend struct{ d *blockdev.Device }

func (p plainBackend) BlockSize() int                          { return p.d.BlockSize() }
func (p plainBackend) Blocks() uint64                          { return p.d.Blocks() }
func (p plainBackend) Read(b uint64, buf []byte) kbase.Errno   { return p.d.Read(b, buf) }
func (p plainBackend) Write(b uint64, data []byte) kbase.Errno { return p.d.Write(b, data) }
func (p plainBackend) Flush() kbase.Errno                      { return p.d.Flush() }

// recoverBoundary contains a panic the way a compartment does: the
// fault becomes EFAULT.
type recoverBoundary struct{}

func (recoverBoundary) Run(op string, fn func() kbase.Errno) (err kbase.Errno) {
	defer func() {
		if recover() != nil {
			err = kbase.EFAULT
		}
	}()
	return fn()
}

// panicFlushBackend is a plain backend whose Flush panics while armed.
type panicFlushBackend struct {
	plainBackend
	armed atomic.Bool
}

func (p *panicFlushBackend) Flush() kbase.Errno {
	if p.armed.Load() {
		panic("injected flush fault")
	}
	return p.plainBackend.Flush()
}

// TestBarrierFlushPanicContained faults the device flush in the middle
// of a batch: the writes ahead of the barrier have completed, the
// barrier and what follows have not. Each SQE must complete exactly
// once and the engine must stay usable.
func TestBarrierFlushPanicContained(t *testing.T) {
	ck := own.NewChecker(own.PolicyRecord)
	dev := blockdev.New(blockdev.Config{Blocks: 32, BlockSize: 64, Rng: kbase.NewRng(7)})
	be := &panicFlushBackend{plainBackend: plainBackend{dev}}
	be.armed.Store(true)
	e := New(be, Config{Checker: ck})
	e.SetBoundary(recoverBoundary{})

	b := e.NewBatch()
	for blk := uint64(0); blk < 8; blk++ {
		page := own.New(ck, "test:page", fill(e.BlockSize(), byte(blk)))
		if err := b.WriteOwned(blk, page, blk); err != kbase.EOK {
			t.Fatalf("WriteOwned(%d): %v", blk, err)
		}
	}
	b.Barrier(100)
	b.WriteOwned(20, own.New(ck, "test:page", fill(e.BlockSize(), 0xEE)), 200)
	tk := b.Submit()
	joined := make(chan []CQE)
	go func() { joined <- tk.Wait() }()
	var cqes []CQE
	select {
	case cqes = <-joined:
	case <-time.After(5 * time.Second):
		// Wait joins on an exact count, so it hangs if an SQE
		// completes twice or never.
		t.Fatalf("Wait hung: %d of %d SQEs completed", e.Stats().Completed, e.Stats().Submitted)
	}
	if len(cqes) != 10 {
		t.Fatalf("got %d CQEs, want 10", len(cqes))
	}
	for i, cqe := range cqes {
		want := kbase.EOK
		if i >= 8 {
			want = kbase.EFAULT
		}
		if cqe.Err != want {
			t.Errorf("CQE %d (user %d): %v, want %v", i, cqe.User, cqe.Err, want)
		}
		if cqe.Page.Valid() {
			cqe.Page.Free()
		}
	}
	if st := e.Stats(); st.Completed != st.Submitted || st.Completed != 10 {
		t.Fatalf("completed %d of %d submitted, want 10 of 10", st.Completed, st.Submitted)
	}
	// A second completion of a moved page would free it twice.
	if n := ck.Count(); n != 0 {
		t.Fatalf("checker recorded %d violations: %v", n, ck.Violations())
	}

	// The dispatch lock was released: the engine still serves.
	be.armed.Store(false)
	b2 := e.NewBatch()
	b2.Write(21, fill(e.BlockSize(), 1), 0)
	b2.Barrier(0)
	if err := b2.Submit().Err(); err != kbase.EOK {
		t.Fatalf("submit after contained fault: %v", err)
	}
	e.Close()
	b3 := e.NewBatch()
	b3.Write(22, fill(e.BlockSize(), 1), 0)
	if err := b3.Submit().Err(); err != kbase.ENODEV {
		t.Fatalf("post-Close submit: %v, want ENODEV", err)
	}
	if leaks := ck.CheckLeaks(); len(leaks) != 0 {
		t.Fatalf("pages leaked: %v", leaks)
	}
}

// gatedBackend is a plain backend whose writes signal entered and
// then block until released, and which logs when each write and flush
// finishes.
type gatedBackend struct {
	plainBackend
	entered chan struct{}
	release chan struct{}
	mu      sync.Mutex
	log     []Op
}

func (g *gatedBackend) note(op Op) {
	g.mu.Lock()
	g.log = append(g.log, op)
	g.mu.Unlock()
}

func (g *gatedBackend) Write(b uint64, data []byte) kbase.Errno {
	g.entered <- struct{}{}
	<-g.release
	defer g.note(OpWrite)
	return g.plainBackend.Write(b, data)
}

func (g *gatedBackend) Flush() kbase.Errno {
	defer g.note(OpFlush)
	return g.plainBackend.Flush()
}

// TestBarrierDrainsOtherBatches checks IO_DRAIN across batches: a
// barrier submitted on one batch waits for a write still issuing from
// another, and Submit returns only after its barrier has run.
func TestBarrierDrainsOtherBatches(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Blocks: 32, BlockSize: 64, Rng: kbase.NewRng(7)})
	be := &gatedBackend{plainBackend: plainBackend{dev}, entered: make(chan struct{}, 1), release: make(chan struct{})}
	e := New(be, Config{})
	defer e.Close()

	// The write's Submit issues it inline and blocks in the gated
	// device until released.
	issuing := make(chan *Ticket)
	go func() {
		w := e.NewBatch()
		w.Write(5, fill(e.BlockSize(), 0x55), 1)
		issuing <- w.Submit()
	}()
	<-be.entered

	submitted := make(chan struct{})
	go func() {
		b := e.NewBatch()
		b.Barrier(2)
		b.Submit()
		close(submitted)
	}()
	select {
	case <-submitted:
		t.Fatal("barrier Submit returned while another batch's write was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(be.release)
	wt := <-issuing
	<-submitted
	// Submit returned after the barrier ran, so the flush is logged
	// without waiting on any ticket.
	be.mu.Lock()
	log := append([]Op(nil), be.log...)
	be.mu.Unlock()
	if len(log) != 2 || log[0] != OpWrite || log[1] != OpFlush {
		t.Fatalf("device saw %v, want [write flush]", log)
	}
	if err := wt.Err(); err != kbase.EOK {
		t.Fatalf("write: %v", err)
	}
}

// TestSubmitReturnsCompleted pins inline issue: Submit on a batch
// without a barrier returns with every SQE already completed.
func TestSubmitReturnsCompleted(t *testing.T) {
	e, _ := testEngine(t, 32, Config{})
	b := e.NewBatch()
	got := make([]byte, e.BlockSize())
	for blk := uint64(0); blk < 8; blk++ {
		b.Write(blk, fill(e.BlockSize(), byte(blk)), blk)
	}
	b.Read(3, got, 8)
	b.Submit()
	if st := e.Stats(); st.Completed != st.Submitted || st.Submitted != 9 {
		t.Fatalf("Submit returned with %d of %d SQEs completed", st.Completed, st.Submitted)
	}
	if got[0] != 3 {
		t.Fatal("read did not observe the write before it")
	}
}

// panicWriteBackend is a plain backend whose Write panics on one block
// while armed.
type panicWriteBackend struct {
	plainBackend
	armed atomic.Bool
	bad   uint64
}

func (p *panicWriteBackend) Write(b uint64, data []byte) kbase.Errno {
	if p.armed.Load() && b == p.bad {
		panic("injected write fault")
	}
	return p.plainBackend.Write(b, data)
}

// TestWritePanicContained faults a device write in the middle of a
// batch. The write is issued inside the boundary, so the fault is
// contained like a flush fault: the writes before it complete
// normally, the faulted write and everything after it fail EFAULT,
// each SQE exactly once, and the engine stays usable.
func TestWritePanicContained(t *testing.T) {
	ck := own.NewChecker(own.PolicyRecord)
	dev := blockdev.New(blockdev.Config{Blocks: 32, BlockSize: 64, Rng: kbase.NewRng(7)})
	be := &panicWriteBackend{plainBackend: plainBackend{dev}, bad: 4}
	be.armed.Store(true)
	e := New(be, Config{Checker: ck})
	e.SetBoundary(recoverBoundary{})

	b := e.NewBatch()
	for blk := uint64(0); blk < 8; blk++ {
		page := own.New(ck, "test:page", fill(e.BlockSize(), byte(blk)))
		if err := b.WriteOwned(blk, page, blk); err != kbase.EOK {
			t.Fatalf("WriteOwned(%d): %v", blk, err)
		}
	}
	b.Barrier(100)
	tk := b.Submit()
	joined := make(chan []CQE)
	go func() { joined <- tk.Wait() }()
	var cqes []CQE
	select {
	case cqes = <-joined:
	case <-time.After(5 * time.Second):
		// Wait joins on an exact count, so it hangs if an SQE
		// completes twice or never.
		t.Fatalf("Wait hung: %d of %d SQEs completed", e.Stats().Completed, e.Stats().Submitted)
	}
	if len(cqes) != 9 {
		t.Fatalf("got %d CQEs, want 9", len(cqes))
	}
	for i, cqe := range cqes {
		want := kbase.EOK
		if i >= int(be.bad) {
			want = kbase.EFAULT
		}
		if cqe.Err != want {
			t.Errorf("CQE %d (user %d): %v, want %v", i, cqe.User, cqe.Err, want)
		}
		if cqe.Page.Valid() {
			cqe.Page.Free()
		}
	}
	if st := e.Stats(); st.Completed != st.Submitted || st.Completed != 9 {
		t.Fatalf("completed %d of %d submitted, want 9 of 9", st.Completed, st.Submitted)
	}
	// A second completion of a moved page would free it twice.
	if n := ck.Count(); n != 0 {
		t.Fatalf("checker recorded %d violations: %v", n, ck.Violations())
	}

	// The dispatch lock was released: the engine still serves.
	be.armed.Store(false)
	b2 := e.NewBatch()
	b2.Write(21, fill(e.BlockSize(), 1), 0)
	b2.Barrier(0)
	if err := b2.Submit().Err(); err != kbase.EOK {
		t.Fatalf("submit after contained fault: %v", err)
	}
	e.Close()
	b3 := e.NewBatch()
	b3.Write(22, fill(e.BlockSize(), 1), 0)
	if err := b3.Submit().Err(); err != kbase.ENODEV {
		t.Fatalf("post-Close submit: %v, want ENODEV", err)
	}
	if leaks := ck.CheckLeaks(); len(leaks) != 0 {
		t.Fatalf("pages leaked: %v", leaks)
	}
}

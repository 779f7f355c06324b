// Package bufcache implements the buffer cache of the simulated
// kernel, deliberately in the legacy Linux style the paper's §4.4
// critiques: each cached disk block is exposed through a BufferHead
// carrying sixteen independently-set state flags whose valid
// combinations are nowhere encoded, shared mutably between the file
// system, the journal, and the cache itself.
//
// The package also contains the flag-state auditor used by the
// experiments to demonstrate how many of the 2^16 combinations are
// actually meaningful — the quantitative backdrop for the paper's
// claim that "not all of the combinations are valid, but even
// determining which are can be complicated".
//
// Concurrency model: the cache is lock-striped into NumShards shards
// keyed by block % NumShards; each shard owns its buffers map, LRU
// list, and dirty set, so lookups of different blocks never contend.
// BufferHead reference counts are atomic (get_bh/put_bh touch no
// lock), and the capacity bound is a cache-wide atomic with per-shard
// eviction, approximating a global LRU the way per-CPU pagevecs do.
package bufcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
	"safelinux/internal/linuxlike/ktrace"
)

// Tracepoints (args documented in DESIGN.md's catalog).
var (
	tpGet       = ktrace.New("bufcache:get")       // a0=block, a1=1 on cache hit
	tpPut       = ktrace.New("bufcache:put")       // a0=block, a1=refcount before release
	tpWriteback = ktrace.New("bufcache:writeback") // a0=block
)

// Latency-plane ops: a cache miss that must fill from the device, and
// the whole dirty-sync flush (exported as bufcache.fill_ns and
// bufcache.sync_ns histograms; span children of the calling trace).
var (
	opFill = ktrace.NewOp("bufcache:fill")
	opSync = ktrace.NewOp("bufcache:sync")
)

// NumShards is the lock-striping factor of the cache.
const NumShards = 16

// Flag is one buffer_head state bit. The set mirrors Linux's
// enum bh_state_bits.
type Flag uint16

// The sixteen buffer state flags (paper §4.4: "includes 16 state
// flags that describe whether the buffer is mapped, dirty, etc.").
const (
	BHUptodate     Flag = 1 << iota // contains valid data
	BHDirty                         // is dirty
	BHLock                          // is locked
	BHReq                           // has been submitted for I/O
	BHUptodateLock                  // internal serialization of uptodate
	BHMapped                        // has a disk mapping
	BHNew                           // disk mapping newly allocated, not yet written
	BHAsyncRead                     // under end_buffer_async_read I/O
	BHAsyncWrite                    // under end_buffer_async_write I/O
	BHDelay                         // delayed allocation, no mapping yet
	BHBoundary                      // block followed by a discontiguity
	BHWriteEIO                      // I/O error on write
	BHUnwritten                     // allocated on disk but unwritten
	BHQuiet                         // suppress I/O error messages
	BHMeta                          // contains metadata
	BHPrio                          // submit with REQ_PRIO
)

// FlagNames maps each flag to its Linux-style name for reports.
var FlagNames = map[Flag]string{
	BHUptodate: "Uptodate", BHDirty: "Dirty", BHLock: "Lock",
	BHReq: "Req", BHUptodateLock: "UptodateLock", BHMapped: "Mapped",
	BHNew: "New", BHAsyncRead: "AsyncRead", BHAsyncWrite: "AsyncWrite",
	BHDelay: "Delay", BHBoundary: "Boundary", BHWriteEIO: "WriteEIO",
	BHUnwritten: "Unwritten", BHQuiet: "Quiet", BHMeta: "Meta", BHPrio: "Prio",
}

// BufferHead is one cached disk block, shared mutably across kernel
// components exactly as struct buffer_head is. Data is exposed as a
// raw slice; flags are exposed for direct manipulation by file
// systems and the journal. Nothing here enforces a state machine —
// that is the point.
type BufferHead struct {
	Block uint64
	Data  []byte

	mu    sync.Mutex // b_uptodate_lock analogue; guards flags only
	flags Flag

	// ioMu is the buffer lock (lock_buffer). It serializes read-in
	// (two tasks missing on one block do not both copy from the
	// device into Data), writeback's copy of Data, and Modify.
	ioMu sync.Mutex

	cache    *Cache
	refcount atomic.Int32

	// Intrusive LRU links, guarded by the owning shard's mutex. A
	// typed intrusive list replaces the old container/list, whose
	// any-typed Element.Value forced a cast on every eviction.
	lruPrev, lruNext *BufferHead

	// dirtyGen counts MarkDirty calls, so writeback can tell whether
	// the buffer was dirtied again after its data was copied. Guarded
	// by the owning shard's mutex.
	dirtyGen uint64

	// journalSeq replaces the void*-style JournalData (b_private)
	// field: the journal records the owning transaction's sequence
	// through the typed accessors below, so the cache/journal crossing
	// is no longer an untyped any that other components could stomp.
	// Zero means "not joined to any transaction"; guarded by mu.
	journalSeq uint64
}

// SetJournalSeq records the journal transaction bh has joined — the
// typed successor of the b_private breadcrumb.
func (bh *BufferHead) SetJournalSeq(seq uint64) {
	bh.mu.Lock()
	bh.journalSeq = seq
	bh.mu.Unlock()
}

// JournalSeq returns the transaction sequence recorded on bh, or 0 if
// the buffer is not part of a running transaction.
func (bh *BufferHead) JournalSeq() uint64 {
	bh.mu.Lock()
	defer bh.mu.Unlock()
	return bh.journalSeq
}

// ClearJournalSeq removes the transaction breadcrumb (commit time).
func (bh *BufferHead) ClearJournalSeq() {
	bh.mu.Lock()
	bh.journalSeq = 0
	bh.mu.Unlock()
}

// MetaRef is the capability a buffer holder presents to the journal
// when registering the buffer as transaction metadata. Only bufcache
// can mint one (the field is unexported), so a *BufferHead obtained
// outside the cache's get/bread surface cannot be journaled, and the
// journal's exported API no longer traffics in the shared raw pointer.
type MetaRef struct {
	bh *BufferHead
}

// Meta mints the journaling capability for bh.
func (bh *BufferHead) Meta() MetaRef { return MetaRef{bh: bh} }

// Head returns the underlying buffer. bufcache is the owning package
// of BufferHead, so this is the one audited unwrap point.
func (r MetaRef) Head() *BufferHead { return r.bh }

// Valid reports whether the capability wraps a live buffer.
func (r MetaRef) Valid() bool { return r.bh != nil }

// TestFlag reports whether f is set.
func (bh *BufferHead) TestFlag(f Flag) bool {
	bh.mu.Lock()
	defer bh.mu.Unlock()
	return bh.flags&f != 0
}

// SetFlag sets f. No validity checking happens here, as in Linux.
func (bh *BufferHead) SetFlag(f Flag) {
	bh.mu.Lock()
	bh.flags |= f
	bh.mu.Unlock()
}

// ClearFlag clears f.
func (bh *BufferHead) ClearFlag(f Flag) {
	bh.mu.Lock()
	bh.flags &^= f
	bh.mu.Unlock()
}

// Flags returns the raw flag word.
func (bh *BufferHead) Flags() Flag {
	bh.mu.Lock()
	defer bh.mu.Unlock()
	return bh.flags
}

// MarkDirty marks the buffer dirty and moves it onto the cache's
// dirty list, mirroring mark_buffer_dirty.
func (bh *BufferHead) MarkDirty() {
	s := bh.cache.shard(bh.Block)
	s.mu.Lock()
	bh.SetFlag(BHDirty)
	bh.dirtyGen++
	s.dirty[bh.Block] = bh
	s.mu.Unlock()
}

// Modify runs fn on the buffer's data under the buffer lock and marks
// the buffer dirty before releasing it. A concurrent writeback thus
// copies all of fn's change or none of it, and in the second case the
// buffer stays dirty. fn must not read bh in again: Bread takes the
// same lock.
func (bh *BufferHead) Modify(fn func(data []byte)) {
	bh.ioMu.Lock()
	defer bh.ioMu.Unlock()
	fn(bh.Data)
	bh.MarkDirty()
}

// MarkUptodate marks the buffer's contents valid.
func (bh *BufferHead) MarkUptodate() { bh.SetFlag(BHUptodate) }

// Uptodate reports BHUptodate.
func (bh *BufferHead) Uptodate() bool { return bh.TestFlag(BHUptodate) }

// Dirty reports BHDirty.
func (bh *BufferHead) Dirty() bool { return bh.TestFlag(BHDirty) }

// Get increments the reference count (get_bh). Lock-free: only
// holders of a live reference may call Get, so the count cannot race
// a 0→1 revival (that transition happens only inside GetBlk under the
// shard lock).
func (bh *BufferHead) Get() { bh.refcount.Add(1) }

// OverReleaseError reports a Put on a buffer whose reference count
// was already zero — the double-free (CWE-415) shape for refcounted
// objects. It carries enough context for an audit trail; the oops is
// still raised so legacy callers that ignore the return keep the old
// crash-on-misuse behavior.
type OverReleaseError struct {
	Block    uint64
	Refcount int // count observed at the failed release (always 0)
}

func (e *OverReleaseError) Error() string {
	return fmt.Sprintf("bufcache: over-release of buffer %d (refcount %d)", e.Block, e.Refcount)
}

// Put releases a reference (brelse / put_bh). A release of a buffer
// nobody holds returns *OverReleaseError and raises a generic oops, as
// brelse would warn. The CAS loop never publishes a negative count, so
// unlike a blind Add(-1)+restore there is no window where a concurrent
// reader observes the corrupted value.
func (bh *BufferHead) Put() error {
	tpPut.Emit(0, bh.Block, uint64(uint32(bh.refcount.Load())))
	for {
		old := bh.refcount.Load()
		if old <= 0 {
			kbase.Oops(kbase.OopsGeneric, "bufcache", "brelse of free buffer %d", bh.Block)
			bh.cache.overReleases.Add(1)
			return &OverReleaseError{Block: bh.Block, Refcount: int(old)}
		}
		if bh.refcount.CompareAndSwap(old, old-1) {
			return nil
		}
	}
}

// Refcount returns the current reference count.
func (bh *BufferHead) Refcount() int { return int(bh.refcount.Load()) }

// lruList is a typed intrusive LRU list of buffer heads (front =
// most recent). Links live inside BufferHead, so traversal and
// removal never cast through an any-typed container element.
type lruList struct {
	front, back *BufferHead
}

func (l *lruList) pushFront(bh *BufferHead) {
	bh.lruPrev = nil
	bh.lruNext = l.front
	if l.front != nil {
		l.front.lruPrev = bh
	}
	l.front = bh
	if l.back == nil {
		l.back = bh
	}
}

func (l *lruList) remove(bh *BufferHead) {
	if bh.lruPrev != nil {
		bh.lruPrev.lruNext = bh.lruNext
	} else {
		l.front = bh.lruNext
	}
	if bh.lruNext != nil {
		bh.lruNext.lruPrev = bh.lruPrev
	} else {
		l.back = bh.lruPrev
	}
	bh.lruPrev, bh.lruNext = nil, nil
}

func (l *lruList) moveToFront(bh *BufferHead) {
	if l.front == bh {
		return
	}
	l.remove(bh)
	l.pushFront(bh)
}

func (l *lruList) init() { l.front, l.back = nil, nil }

// cacheShard is one stripe of the cache: the buffers hashed to it,
// their LRU order, and the dirty subset.
type cacheShard struct {
	mu      sync.Mutex
	buffers map[uint64]*BufferHead
	lru     lruList
	dirty   map[uint64]*BufferHead

	hits      uint64
	misses    uint64
	writeback uint64
	evictions uint64
}

// Cache is the buffer cache over one block device.
type Cache struct {
	dev          *blockdev.Device
	maxBufs      int           // cache-wide capacity (0 = unbounded)
	size         atomic.Int64  // total buffers across shards
	overReleases atomic.Uint64 // Put calls rejected with OverReleaseError

	// wbMu runs one writeback at a time, so the copies of a buffer
	// reach the device in the order they were taken: an older copy
	// still in flight can never land on top of a newer one.
	wbMu sync.Mutex

	// engine, when set, switches SyncDirty to async writeback: every
	// dirty buffer is submitted before the first completion is waited
	// on, with one barrier closing the batch.
	engine atomic.Pointer[kio.Engine]

	// boundary, when installed, wraps the public cache operations in a
	// crash-containment compartment (see boundary.go).
	boundary atomic.Pointer[boundaryBox]

	shards [NumShards]cacheShard
}

// SetEngine routes SyncDirty through the kio engine (nil restores the
// synchronous plug path). The engine must drive the cache's device.
func (c *Cache) SetEngine(e *kio.Engine) { c.engine.Store(e) }

// CacheStats counts cache activity.
type CacheStats struct {
	Hits         uint64
	Misses       uint64
	Writeback    uint64
	Evictions    uint64
	OverReleases uint64 // Put calls rejected with OverReleaseError
}

// NewCache creates a cache over dev holding at most maxBufs buffers
// (0 means unbounded).
func NewCache(dev *blockdev.Device, maxBufs int) *Cache {
	c := &Cache{dev: dev, maxBufs: maxBufs}
	for i := range c.shards {
		c.shards[i].buffers = make(map[uint64]*BufferHead)
		c.shards[i].dirty = make(map[uint64]*BufferHead)
	}
	return c
}

func (c *Cache) shard(block uint64) *cacheShard {
	return &c.shards[block%NumShards]
}

// Device returns the underlying block device.
func (c *Cache) Device() *blockdev.Device { return c.dev }

// CollectMetrics enumerates the cache counters for the ktrace metrics
// registry (register with m.Register("bufcache", c.CollectMetrics)).
func (c *Cache) CollectMetrics(emit func(name string, value uint64)) {
	st := c.Stats()
	emit("hits", st.Hits)
	emit("misses", st.Misses)
	emit("writeback", st.Writeback)
	emit("evictions", st.Evictions)
	emit("over_releases", st.OverReleases)
	emit("cached", uint64(c.Cached()))
	emit("dirty", uint64(c.DirtyCount()))
}

// Stats returns a snapshot of cache counters. It is the legacy shim
// over the same counters CollectMetrics registers on the unified
// metrics plane.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Writeback += s.writeback
		st.Evictions += s.evictions
		s.mu.Unlock()
	}
	st.OverReleases = c.overReleases.Load()
	return st
}

// doGetBlk returns the buffer for block without reading it from disk
// (getblk). The returned buffer holds a new reference.
func (c *Cache) doGetBlk(block uint64) (*BufferHead, kbase.Errno) {
	if block >= c.dev.Blocks() {
		return nil, kbase.EINVAL
	}
	s := c.shard(block)
	s.mu.Lock()
	if bh, ok := s.buffers[block]; ok {
		s.hits++
		bh.refcount.Add(1)
		s.lru.moveToFront(bh)
		s.mu.Unlock()
		tpGet.Emit(0, block, 1)
		return bh, kbase.EOK
	}
	s.misses++
	tpGet.Emit(0, block, 0)
	if c.maxBufs > 0 && int(c.size.Load()) >= c.maxBufs {
		if !c.evictOneLocked(s) {
			// Nothing evictable in this block's shard; hunt the
			// others without holding our shard lock.
			s.mu.Unlock()
			if !c.evictAnyShard() {
				return nil, kbase.ENOBUFS
			}
			s.mu.Lock()
			if bh, ok := s.buffers[block]; ok {
				// Someone else cached it while we hunted.
				bh.refcount.Add(1)
				s.lru.moveToFront(bh)
				s.mu.Unlock()
				return bh, kbase.EOK
			}
		}
	}
	bh := &BufferHead{
		Block: block,
		Data:  make([]byte, c.dev.BlockSize()),
		cache: c,
	}
	bh.refcount.Store(1)
	s.lru.pushFront(bh)
	s.buffers[block] = bh
	c.size.Add(1)
	s.mu.Unlock()
	return bh, kbase.EOK
}

// evictOneLocked evicts one clean unreferenced buffer from s's LRU
// tail. Caller holds s.mu.
func (c *Cache) evictOneLocked(s *cacheShard) bool {
	for bh := s.lru.back; bh != nil; bh = bh.lruPrev {
		if bh.refcount.Load() == 0 && !bh.Dirty() {
			s.lru.remove(bh)
			delete(s.buffers, bh.Block)
			s.evictions++
			c.size.Add(-1)
			return true
		}
	}
	return false
}

// evictAnyShard tries each shard in turn until one eviction succeeds.
// Caller holds no shard lock.
func (c *Cache) evictAnyShard() bool {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		ok := c.evictOneLocked(s)
		s.mu.Unlock()
		if ok {
			return true
		}
	}
	return false
}

// doBread returns an uptodate buffer for block, reading from disk if
// necessary (bread).
func (c *Cache) doBread(block uint64) (*BufferHead, kbase.Errno) {
	return c.doBreadCtx(nil, block)
}

func (c *Cache) doBreadCtx(task *kbase.Task, block uint64) (*BufferHead, kbase.Errno) {
	bh, err := c.doGetBlk(block)
	if err != kbase.EOK {
		return nil, err
	}
	if !bh.Uptodate() {
		if err := c.fill(task, bh); err != kbase.EOK {
			_ = bh.Put() // brelse-style release; over-release is already oopsed
			return nil, err
		}
	}
	return bh, kbase.EOK
}

// fill reads a missed block in from the device — the op the
// bufcache:fill histogram times. Serialized per buffer so two tasks
// missing on the same block do not both copy from the device.
func (c *Cache) fill(task *kbase.Task, bh *BufferHead) kbase.Errno {
	t := opFill.Begin(task)
	defer t.End()
	bh.ioMu.Lock()
	defer bh.ioMu.Unlock()
	if bh.Uptodate() { // recheck: a racing Bread may have filled it
		return kbase.EOK
	}
	if err := c.dev.Read(bh.Block, bh.Data); err != kbase.EOK {
		return err
	}
	bh.SetFlag(BHUptodate | BHMapped | BHReq)
	return kbase.EOK
}

// copyOut passes bh's data to submit, which must copy it before it
// returns, under the buffer lock. It returns the dirty generation the
// copy reflects, for written.
func (c *Cache) copyOut(bh *BufferHead, submit func(data []byte) kbase.Errno) (uint64, kbase.Errno) {
	bh.ioMu.Lock()
	defer bh.ioMu.Unlock()
	s := c.shard(bh.Block)
	s.mu.Lock()
	gen := bh.dirtyGen
	s.mu.Unlock()
	return gen, submit(bh.Data)
}

// written records that bh's data as of dirty generation gen reached
// the device. The buffer goes clean only if nothing dirtied it since
// that copy; otherwise the newer bytes still await writeback.
func (c *Cache) written(bh *BufferHead, gen uint64) {
	s := c.shard(bh.Block)
	s.mu.Lock()
	if bh.dirtyGen == gen {
		bh.ClearFlag(BHDirty | BHNew)
		delete(s.dirty, bh.Block)
	}
	s.writeback++
	s.mu.Unlock()
	bh.SetFlag(BHReq)
	tpWriteback.Emit(0, bh.Block, 0)
}

// doWriteBuffer synchronously writes one buffer to disk and clears its
// dirty bit (sync_dirty_buffer for a single bh).
func (c *Cache) doWriteBuffer(bh *BufferHead) kbase.Errno {
	if !bh.TestFlag(BHMapped) && !bh.TestFlag(BHNew) {
		// Writing an unmapped buffer is the classic flag-protocol
		// violation; Linux would hit a BUG in submit_bh.
		kbase.Oops(kbase.OopsSemantic, "bufcache",
			"submit of unmapped buffer %d (flags %04x)", bh.Block, bh.Flags())
		return kbase.EINVAL
	}
	c.wbMu.Lock()
	defer c.wbMu.Unlock()
	gen, err := c.copyOut(bh, func(data []byte) kbase.Errno { return c.dev.Write(bh.Block, data) })
	if err != kbase.EOK {
		bh.SetFlag(BHWriteEIO)
		return err
	}
	c.written(bh, gen)
	return kbase.EOK
}

// doSyncDirty writes all dirty buffers and issues a device flush
// barrier (sync_dirty_buffers + blkdev_issue_flush). The writes are
// submitted through a device plug so each device shard's lock is
// taken once for the whole batch.
func (c *Cache) doSyncDirty() kbase.Errno {
	return c.doSyncDirtyCtx(nil)
}

func (c *Cache) doSyncDirtyCtx(task *kbase.Task) kbase.Errno {
	c.wbMu.Lock()
	defer c.wbMu.Unlock()
	var toWrite []*BufferHead
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, bh := range s.dirty {
			toWrite = append(toWrite, bh)
		}
		s.mu.Unlock()
	}
	if e := c.engine.Load(); e != nil {
		return c.syncDirtyAsync(task, e, toWrite)
	}
	var firstErr kbase.Errno = kbase.EOK
	plug := c.dev.Plug()
	queued := make([]*BufferHead, 0, len(toWrite))
	gens := make([]uint64, 0, len(toWrite))
	for _, bh := range toWrite {
		if !bh.TestFlag(BHMapped) && !bh.TestFlag(BHNew) {
			kbase.Oops(kbase.OopsSemantic, "bufcache",
				"submit of unmapped buffer %d (flags %04x)", bh.Block, bh.Flags())
			if firstErr == kbase.EOK {
				firstErr = kbase.EINVAL
			}
			continue
		}
		gen, err := c.copyOut(bh, func(data []byte) kbase.Errno { return plug.Write(bh.Block, data) })
		if err != kbase.EOK {
			if firstErr == kbase.EOK {
				firstErr = err
			}
			continue
		}
		queued = append(queued, bh)
		gens = append(gens, gen)
	}
	results, _ := plug.Unplug()
	for i, bh := range queued {
		if results[i] != kbase.EOK {
			bh.SetFlag(BHWriteEIO)
			if firstErr == kbase.EOK {
				firstErr = results[i]
			}
			continue
		}
		c.written(bh, gens[i])
	}
	if err := c.dev.Flush(); err != kbase.EOK && firstErr == kbase.EOK {
		firstErr = err
	}
	return firstErr
}

// syncDirtyAsync is SyncDirty's engine path: every dirty buffer is
// submitted (incrementally, so the workers start writing while later
// buffers are still being flag-checked) before any completion is
// reaped, and one barrier SQE replaces the trailing device flush.
func (c *Cache) syncDirtyAsync(task *kbase.Task, e *kio.Engine, toWrite []*BufferHead) kbase.Errno {
	bt := kio.OpBatch.Begin(task)
	defer bt.End()
	var firstErr kbase.Errno = kbase.EOK
	b := e.NewBatch()
	queued := make([]*BufferHead, 0, len(toWrite))
	gens := make([]uint64, 0, len(toWrite))
	for _, bh := range toWrite {
		if !bh.TestFlag(BHMapped) && !bh.TestFlag(BHNew) {
			kbase.Oops(kbase.OopsSemantic, "bufcache",
				"submit of unmapped buffer %d (flags %04x)", bh.Block, bh.Flags())
			if firstErr == kbase.EOK {
				firstErr = kbase.EINVAL
			}
			continue
		}
		gen, err := c.copyOut(bh, func(data []byte) kbase.Errno { return b.Write(bh.Block, data, uint64(len(queued))) })
		if err != kbase.EOK {
			if firstErr == kbase.EOK {
				firstErr = err
			}
			continue
		}
		queued = append(queued, bh)
		gens = append(gens, gen)
		b.Submit()
	}
	b.Barrier(0)
	for _, cqe := range b.Submit().Wait() {
		if cqe.Op == kio.OpFlush {
			if cqe.Err != kbase.EOK && firstErr == kbase.EOK {
				firstErr = cqe.Err
			}
			continue
		}
		bh := queued[cqe.User]
		if cqe.Err != kbase.EOK {
			bh.SetFlag(BHWriteEIO)
			if firstErr == kbase.EOK {
				firstErr = cqe.Err
			}
			continue
		}
		c.written(bh, gens[cqe.User])
	}
	return firstErr
}

// DirtyCount returns the number of dirty buffers.
func (c *Cache) DirtyCount() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.dirty)
		s.mu.Unlock()
	}
	return n
}

// Forget drops a buffer from the cache without writing it
// (bforget) — used by the journal for revoked blocks.
func (c *Cache) Forget(bh *BufferHead) {
	bh.ClearFlag(BHDirty)
	s := c.shard(bh.Block)
	s.mu.Lock()
	delete(s.dirty, bh.Block)
	s.mu.Unlock()
}

// Invalidate drops every clean, unreferenced buffer; used after a
// simulated crash so stale cached state cannot mask lost writes.
// Dirty or referenced buffers are dropped too — a crash destroys RAM.
func (c *Cache) Invalidate() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.buffers = make(map[uint64]*BufferHead)
		s.dirty = make(map[uint64]*BufferHead)
		s.lru.init()
		s.mu.Unlock()
	}
	c.size.Store(0)
}

// Cached returns the number of buffers currently in the cache.
func (c *Cache) Cached() int {
	return int(c.size.Load())
}

package bufcache

import (
	"testing"
	"time"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
)

func asyncCache(t *testing.T) (*Cache, *kio.Engine) {
	t.Helper()
	c := testCache(t, 0)
	e := kio.New(c.Device(), kio.Config{})
	t.Cleanup(e.Close)
	c.SetEngine(e)
	return c, e
}

func dirtyBlock(t *testing.T, c *Cache, block uint64, fill byte) {
	t.Helper()
	bh, err := c.Bread(block)
	if err != kbase.EOK {
		t.Fatalf("Bread(%d): %v", block, err)
	}
	for i := range bh.Data {
		bh.Data[i] = fill
	}
	bh.MarkDirty()
	bh.Put()
}

func TestSyncDirtyAsyncWritesBack(t *testing.T) {
	c, e := asyncCache(t)
	for i := uint64(0); i < 12; i++ {
		dirtyBlock(t, c, i, byte(0x10+i))
	}
	if err := c.SyncDirty(); err != kbase.EOK {
		t.Fatalf("SyncDirty: %v", err)
	}
	if n := c.DirtyCount(); n != 0 {
		t.Fatalf("dirty count after sync = %d", n)
	}
	// Every buffer is clean and marked written.
	for i := uint64(0); i < 12; i++ {
		bh, _ := c.Bread(i)
		if bh.TestFlag(BHDirty) || !bh.TestFlag(BHReq) {
			t.Fatalf("block %d flags after sync: %s", i, FlagString(bh.Flags()))
		}
		bh.Put()
	}
	// Durable: the barrier at the end of the async sync flushed.
	c.Device().CrashApplyNone()
	raw := make([]byte, 64)
	for i := uint64(0); i < 12; i++ {
		c.Device().Read(i, raw)
		if raw[0] != byte(0x10+i) {
			t.Fatalf("block %d lost after crash: %#x", i, raw[0])
		}
	}
	if st := e.Stats(); st.Submitted == 0 || st.Batches == 0 {
		t.Fatalf("writeback bypassed the engine: %+v", st)
	}
}

func TestSyncDirtyAsyncWriteFault(t *testing.T) {
	c, _ := asyncCache(t)
	dirtyBlock(t, c, 3, 0xAA)
	dirtyBlock(t, c, 4, 0xBB)
	c.Device().MarkBad(4)
	err := c.SyncDirty()
	if err == kbase.EOK {
		t.Fatal("SyncDirty succeeded with a bad block queued")
	}
	bh3, _ := c.Bread(3)
	if bh3.TestFlag(BHDirty) {
		t.Fatalf("healthy block stayed dirty: %s", FlagString(bh3.Flags()))
	}
	bh3.Put()
	bh4, _ := c.GetBlk(4)
	if !bh4.TestFlag(BHWriteEIO) {
		t.Fatalf("failed block missing BHWriteEIO: %s", FlagString(bh4.Flags()))
	}
	bh4.Put()
}

func TestSyncDirtyAsyncMatchesSync(t *testing.T) {
	image := func(async bool) []byte {
		c := testCache(t, 0)
		if async {
			e := kio.New(c.Device(), kio.Config{})
			defer e.Close()
			c.SetEngine(e)
		}
		for i := uint64(0); i < 8; i++ {
			dirtyBlock(t, c, i*3, byte(i+1))
		}
		if err := c.SyncDirty(); err != kbase.EOK {
			t.Fatalf("SyncDirty(async=%v): %v", async, err)
		}
		c.Device().CrashApplyNone()
		var img []byte
		raw := make([]byte, 64)
		for b := uint64(0); b < 64; b++ {
			c.Device().Read(b, raw)
			img = append(img, raw...)
		}
		return img
	}
	syncImg := image(false)
	asyncImg := image(true)
	for i := range syncImg {
		if syncImg[i] != asyncImg[i] {
			t.Fatalf("durable images diverge at byte %d (block %d)", i, i/64)
		}
	}
}

// heldWriteBackend drives a device through the engine but holds every
// write until resume is closed, announcing each on entered first.
type heldWriteBackend struct {
	dev     *blockdev.Device
	entered chan struct{}
	resume  chan struct{}
}

func (h heldWriteBackend) BlockSize() int                        { return h.dev.BlockSize() }
func (h heldWriteBackend) Blocks() uint64                        { return h.dev.Blocks() }
func (h heldWriteBackend) Read(b uint64, buf []byte) kbase.Errno { return h.dev.Read(b, buf) }
func (h heldWriteBackend) Flush() kbase.Errno                    { return h.dev.Flush() }

func (h heldWriteBackend) Write(b uint64, data []byte) kbase.Errno {
	select {
	case h.entered <- struct{}{}:
	default:
	}
	<-h.resume
	return h.dev.Write(b, data)
}

// TestRedirtyDuringWritebackStaysDirty dirties a buffer again after
// writeback copied its data but before the write completed. The newer
// bytes were never written, so the buffer must stay dirty and on the
// dirty list, and the next sync must write them.
func TestRedirtyDuringWritebackStaysDirty(t *testing.T) {
	c := testCache(t, 0)
	be := heldWriteBackend{dev: c.Device(), entered: make(chan struct{}, 1), resume: make(chan struct{})}
	e := kio.New(be, kio.Config{})
	t.Cleanup(e.Close)
	c.SetEngine(e)

	dirtyBlock(t, c, 3, 0x01)
	done := make(chan kbase.Errno)
	go func() { done <- c.SyncDirty() }()
	<-be.entered // the 0x01 copy is in flight
	dirtyBlock(t, c, 3, 0x02)
	close(be.resume)
	if err := <-done; err != kbase.EOK {
		t.Fatalf("SyncDirty: %v", err)
	}
	bh, _ := c.Bread(3)
	defer bh.Put()
	if !bh.Dirty() || c.DirtyCount() != 1 {
		t.Fatalf("re-dirtied buffer went clean: flags %s, dirty count %d",
			FlagString(bh.Flags()), c.DirtyCount())
	}
	if err := c.SyncDirty(); err != kbase.EOK {
		t.Fatalf("second SyncDirty: %v", err)
	}
	raw := make([]byte, c.Device().BlockSize())
	c.Device().Read(3, raw)
	if raw[0] != 0x02 || c.DirtyCount() != 0 {
		t.Fatalf("second sync: device holds %#x, dirty count %d", raw[0], c.DirtyCount())
	}
}

// TestOlderWritebackNeverLandsLast starts a second writeback of a
// buffer while an older copy of it is still in flight. The older copy
// must not reach the device after the newer one, or the device keeps
// stale bytes while the buffer reads clean.
func TestOlderWritebackNeverLandsLast(t *testing.T) {
	c := testCache(t, 0)
	be := heldWriteBackend{dev: c.Device(), entered: make(chan struct{}, 1), resume: make(chan struct{})}
	e := kio.New(be, kio.Config{})
	t.Cleanup(e.Close)
	c.SetEngine(e)

	dirtyBlock(t, c, 3, 0x01)
	synced := make(chan kbase.Errno)
	go func() { synced <- c.SyncDirty() }()
	<-be.entered // the 0x01 copy is in flight
	dirtyBlock(t, c, 3, 0x02)
	bh, _ := c.Bread(3)
	defer bh.Put()
	wrote := make(chan kbase.Errno)
	go func() { wrote <- c.WriteBuffer(bh) }()
	// Give an unserialized WriteBuffer time to land 0x02 first.
	select {
	case err := <-wrote:
		close(be.resume)
		if err != kbase.EOK {
			t.Fatalf("WriteBuffer: %v", err)
		}
	case <-time.After(20 * time.Millisecond):
		close(be.resume)
		if err := <-wrote; err != kbase.EOK {
			t.Fatalf("WriteBuffer: %v", err)
		}
	}
	if err := <-synced; err != kbase.EOK {
		t.Fatalf("SyncDirty: %v", err)
	}
	raw := make([]byte, c.Device().BlockSize())
	c.Device().Read(3, raw)
	if raw[0] != 0x02 && !bh.Dirty() {
		t.Fatalf("device holds stale %#x and the buffer reads clean", raw[0])
	}
}

package safebuf

import (
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
	"safelinux/internal/safety/own"
)

func asyncCache(t *testing.T) (*Cache, *blockdev.Device, *own.Checker) {
	t.Helper()
	c, dev, ck := testCache(t)
	e := kio.New(dev, kio.Config{})
	t.Cleanup(e.Close)
	c.SetEngine(e)
	return c, dev, ck
}

func TestSyncAsyncWritesBack(t *testing.T) {
	c, dev, ck := asyncCache(t)
	for i := uint64(0); i < 8; i++ {
		b, err := c.Get(i)
		if err != kbase.EOK {
			t.Fatalf("Get(%d): %v", i, err)
		}
		fill := byte(0x40 + i)
		if err := b.Write(func(d []byte) { d[0] = fill }); err != kbase.EOK {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}
	if err := c.Sync(); err != kbase.EOK {
		t.Fatalf("Sync: %v", err)
	}
	if n := c.DirtyCount(); n != 0 {
		t.Fatalf("dirty count after async sync = %d", n)
	}
	// The trailing barrier made every write durable.
	dev.CrashApplyNone()
	raw := make([]byte, 64)
	for i := uint64(0); i < 8; i++ {
		dev.Read(i, raw)
		if raw[0] != byte(0x40+i) {
			t.Fatalf("block %d lost after crash: %#x", i, raw[0])
		}
	}
	for i := uint64(0); i < 8; i++ {
		b, _ := c.Get(i)
		if b.State() != StateClean {
			t.Fatalf("block %d state after sync = %s", i, b.State())
		}
	}
	c.Drop()
	if ck.Count() != 0 {
		t.Fatalf("ownership violations: %v", ck.Violations())
	}
	if n := ck.LiveCount(); n != 0 {
		t.Fatalf("leaked %d cells", n)
	}
}

func TestSyncAsyncWriteFault(t *testing.T) {
	c, dev, _ := asyncCache(t)
	good, _ := c.Get(2)
	bad, _ := c.Get(5)
	good.Write(func(d []byte) { d[0] = 1 })
	bad.Write(func(d []byte) { d[0] = 2 })
	dev.MarkBad(5)
	if err := c.Sync(); err == kbase.EOK {
		t.Fatal("Sync succeeded with a bad block queued")
	}
	if good.State() != StateClean {
		t.Fatalf("healthy buffer state = %s, want Clean", good.State())
	}
	if bad.State() != StateError {
		t.Fatalf("failed buffer state = %s, want Error", bad.State())
	}
	if st := c.Stats(); st.Writeback == 0 {
		t.Fatalf("healthy write not counted as writeback: %+v", st)
	}
}

package safelinux

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safefs"
	"safelinux/internal/safety/own"
)

// Stress tests for the sharded I/O path. Unlike the workload-driven
// concurrency tests, these drive the syscall surface with an explicit
// create/write/read/unlink loop per goroutine plus cross-worker reads
// of a shared file, so the per-inode locks, the journal's group
// commit, the sharded caches and the sharded block device all see
// mixed traffic at once. Run with -race.

// stressFS drives workers*rounds create/write/read/verify/unlink
// cycles against a mounted file system, with every worker also
// re-reading one shared file so read paths contend across workers.
func stressFS(t *testing.T, v *vfs.VFS, setupTask *kbase.Task, workers, rounds int) {
	t.Helper()

	// A shared read-only file every worker re-reads: the read-side
	// scaling path (per-inode lock in extlike, rwsem read in safefs).
	shared := []byte("shared-payload-the-readers-all-see")
	fd, err := v.Open(setupTask, "/shared", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("create /shared: %v", err)
	}
	if _, err := v.Pwrite(setupTask, fd, shared, 0); err != kbase.EOK {
		t.Fatalf("write /shared: %v", err)
	}
	v.Close(fd)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			task := kbase.NewTask()
			dir := fmt.Sprintf("/s%d", id)
			if err := v.Mkdir(task, dir); err != kbase.EOK {
				t.Errorf("worker %d mkdir: %v", id, err)
				return
			}
			buf := make([]byte, 64)
			for r := 0; r < rounds; r++ {
				path := fmt.Sprintf("%s/f%d", dir, r%4)
				payload := []byte(fmt.Sprintf("worker %d round %d", id, r))

				fd, err := v.Open(task, path, vfs.ORdWr|vfs.OCreate)
				if err != kbase.EOK {
					t.Errorf("worker %d open %s: %v", id, path, err)
					return
				}
				if _, err := v.Pwrite(task, fd, payload, 0); err != kbase.EOK {
					t.Errorf("worker %d write: %v", id, err)
					v.CloseAs(task, fd)
					return
				}
				n, err := v.Pread(task, fd, buf, 0)
				if err != kbase.EOK || string(buf[:n]) != string(payload) {
					t.Errorf("worker %d read back %q err %v, want %q", id, buf[:n], err, payload)
					v.CloseAs(task, fd)
					return
				}
				v.CloseAs(task, fd)

				// Cross-worker shared read.
				sfd, err := v.Open(task, "/shared", vfs.ORdOnly)
				if err != kbase.EOK {
					t.Errorf("worker %d open shared: %v", id, err)
					return
				}
				n, err = v.Pread(task, sfd, buf, 0)
				if err != kbase.EOK || string(buf[:n]) != string(shared) {
					t.Errorf("worker %d shared read %q err %v", id, buf[:n], err)
					v.CloseAs(task, sfd)
					return
				}
				v.CloseAs(task, sfd)

				if _, err := v.Stat(task, path); err != kbase.EOK {
					t.Errorf("worker %d stat: %v", id, err)
					return
				}
				// Unlink every other round; the rest survive for the
				// post-crash/remount checks.
				if r%2 == 1 {
					if err := v.Unlink(task, path); err != kbase.EOK {
						t.Errorf("worker %d unlink %s: %v", id, path, err)
						return
					}
				}
			}
			if _, err := v.ReadDir(task, dir); err != kbase.EOK {
				t.Errorf("worker %d readdir: %v", id, err)
			}
		}(w)
	}
	wg.Wait()
}

func TestStressMixedOpsExtlike(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	dev := blockdev.New(blockdev.Config{Blocks: 16384, BlockSize: 512, Rng: kbase.NewRng(11)})
	if _, err := extlike.Mkfs(dev, extlike.MkfsOptions{}); err != kbase.EOK {
		t.Fatalf("mkfs: %v", err)
	}
	v := vfs.New(nil)
	setupTask := kbase.NewTask()
	v.RegisterFS(&extlike.FS{})
	if err := v.Mount(setupTask, "/", "extlike", vfs.NewMountData(&extlike.MountData{Dev: dev})); err != kbase.EOK {
		t.Fatalf("mount: %v", err)
	}

	lockdepBefore := len(kbase.Validator().Reports())
	stressFS(t, v, setupTask, 8, 30)

	if n := rec.Count(""); n != 0 {
		t.Fatalf("oopses under stress: %v", rec.Events())
	}
	if reports := kbase.Validator().Reports(); len(reports) != lockdepBefore {
		t.Fatalf("lockdep reports under stress: %v", reports[lockdepBefore:])
	}
	if err := v.Unmount(setupTask, "/"); err != kbase.EOK {
		t.Fatalf("unmount: %v", err)
	}
	rep, ferr := extlike.Fsck(dev)
	if ferr != kbase.EOK {
		t.Fatalf("fsck: %v", ferr)
	}
	if !rep.Clean() {
		t.Fatalf("volume inconsistent after stress:\n%s", rep.Summary())
	}
}

func TestStressMixedOpsSafefs(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	dev := blockdev.New(blockdev.Config{Blocks: 16384, BlockSize: 512, Rng: kbase.NewRng(12)})
	if err := safefs.Format(dev); err != kbase.EOK {
		t.Fatalf("format: %v", err)
	}
	ck := own.NewChecker(own.PolicyRecord)
	v := vfs.New(nil)
	setupTask := kbase.NewTask()
	v.RegisterFS(&safefs.FS{SyncOnCommit: false})
	if err := v.Mount(setupTask, "/", "safefs", vfs.NewMountData(&safefs.MountData{Disk: dev, Checker: ck})); err != kbase.EOK {
		t.Fatalf("mount: %v", err)
	}

	lockdepBefore := len(kbase.Validator().Reports())
	stressFS(t, v, setupTask, 8, 30)

	if n := rec.Count(""); n != 0 {
		t.Fatalf("oopses under stress: %v", rec.Events())
	}
	if n := ck.Count(); n != 0 {
		t.Fatalf("ownership violations under stress: %v", ck.Violations())
	}
	if reports := kbase.Validator().Reports(); len(reports) != lockdepBefore {
		t.Fatalf("lockdep reports under stress: %v", reports[lockdepBefore:])
	}
	// Remount and confirm the surviving files are intact.
	if err := v.SyncAll(setupTask); err != kbase.EOK {
		t.Fatalf("SyncAll: %v", err)
	}
	if err := v.Unmount(setupTask, "/"); err != kbase.EOK {
		t.Fatalf("unmount: %v", err)
	}
	v2 := vfs.New(nil)
	v2.RegisterFS(&safefs.FS{})
	if err := v2.Mount(setupTask, "/", "safefs", vfs.NewMountData(&safefs.MountData{Disk: dev})); err != kbase.EOK {
		t.Fatalf("remount: %v", err)
	}
	buf := make([]byte, 64)
	fd, err := v2.Open(setupTask, "/shared", vfs.ORdOnly)
	if err != kbase.EOK {
		t.Fatalf("open shared after remount: %v", err)
	}
	if n, err := v2.Pread(setupTask, fd, buf, 0); err != kbase.EOK || n == 0 {
		t.Fatalf("shared unreadable after remount: n=%d err=%v", n, err)
	}
	v2.Close(fd)
}

// TestStressBufcacheGetPut hammers GetBlk/Bread/Put from many
// goroutines over a working set that spans every shard, with one
// writer goroutine marking buffers dirty and syncing. Afterwards the
// stats must balance and every refcount must have drained to zero.
func TestStressBufcacheGetPut(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	const blocks = 1024
	dev := blockdev.New(blockdev.Config{Blocks: blocks, BlockSize: 128, Rng: kbase.NewRng(13)})
	c := bufcache.NewCache(dev, 0) // unbounded: stats accounting is exact

	const workers = 8
	const iters = 4000
	var gets atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := kbase.NewRng(uint64(id+1) * 0x9E3779B9)
			for i := 0; i < iters; i++ {
				blk := rng.Uint64() % blocks
				bh, err := c.Bread(blk)
				if err != kbase.EOK {
					t.Errorf("worker %d Bread(%d): %v", id, blk, err)
					return
				}
				gets.Add(1)
				if !bh.Uptodate() {
					t.Errorf("worker %d got stale buffer %d", id, blk)
				}
				if i%64 == 0 && id == 0 {
					bh.Data[0] = byte(i)
					bh.MarkDirty()
				}
				bh.Put()
			}
			if id == 0 {
				if err := c.SyncDirty(); err != kbase.EOK {
					t.Errorf("SyncDirty: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()

	if n := rec.Count(""); n != 0 {
		t.Fatalf("oopses under cache stress: %v", rec.Events())
	}
	st := c.Stats()
	if st.Hits+st.Misses != gets.Load() {
		t.Fatalf("stats leak: hits %d + misses %d != gets %d", st.Hits, st.Misses, gets.Load())
	}
	if c.Cached() > blocks {
		t.Fatalf("cache grew past device: %d", c.Cached())
	}
	// Every reference was released: a fresh Get must see refcount 1.
	for blk := uint64(0); blk < blocks; blk += 97 {
		bh, err := c.GetBlk(blk)
		if err != kbase.EOK {
			t.Fatalf("GetBlk(%d): %v", blk, err)
		}
		if rc := bh.Refcount(); rc != 1 {
			t.Fatalf("block %d refcount %d after drain, want 1", blk, rc)
		}
		bh.Put()
	}
	if live := c.CheckLive(bufcache.DefaultRules()); len(live) != 0 {
		t.Fatalf("flag-rule violations after stress: %v", live)
	}
}

// TestStressBufcacheBounded exercises the eviction path (own shard
// first, then any shard) under concurrency: the capacity bound is
// approximate while racing, but the cache must stay close to it and
// keep serving hits.
func TestStressBufcacheBounded(t *testing.T) {
	const blocks = 512
	const maxBufs = 64
	dev := blockdev.New(blockdev.Config{Blocks: blocks, BlockSize: 128, Rng: kbase.NewRng(14)})
	c := bufcache.NewCache(dev, maxBufs)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := kbase.NewRng(uint64(id+1) * 0x51ED2701)
			for i := 0; i < 2000; i++ {
				blk := rng.Uint64() % blocks
				bh, err := c.Bread(blk)
				if err == kbase.ENOBUFS {
					continue // all slots pinned by peers for a moment
				}
				if err != kbase.EOK {
					t.Errorf("worker %d Bread(%d): %v", id, blk, err)
					return
				}
				bh.Put()
			}
		}(w)
	}
	wg.Wait()

	// With every reference dropped, the bound holds up to one
	// in-flight overshoot per worker.
	if got := c.Cached(); got > maxBufs+workers {
		t.Fatalf("cache size %d way past bound %d", got, maxBufs)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("bounded cache never evicted: %+v", st)
	}
}

package safelinux

import (
	"fmt"
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/vfs"
)

// TestKernelAsyncIO boots a kernel with the kio engine wired in and
// drives file traffic through the full stack: VFS → extlike → journal
// (overlapped commit) → bufcache (batched writeback) → kio → blockdev.
func TestKernelAsyncIO(t *testing.T) {
	k, err := New(Config{Seed: 11, CaptureOops: true, AsyncIO: true})
	if err != kbase.EOK {
		t.Fatalf("New: %v", err)
	}
	defer k.Close()
	if k.IOEngine() == nil {
		t.Fatal("AsyncIO kernel has no engine")
	}

	for i := 0; i < 8; i++ {
		path := fmt.Sprintf("/f%d", i)
		writeThrough(t, k.VFS, k.Task, path, fmt.Sprintf("payload-%d", i))
	}
	if err := k.VFS.SyncAll(k.Task); err != kbase.EOK {
		t.Fatalf("SyncAll: %v", err)
	}
	for i := 0; i < 8; i++ {
		path := fmt.Sprintf("/f%d", i)
		if got := readThrough(t, k.VFS, k.Task, path); got != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("%s = %q", path, got)
		}
	}

	st := k.IOEngine().Stats()
	if st.Submitted == 0 || st.Completed == 0 {
		t.Fatalf("file traffic bypassed the engine: %+v", st)
	}
	if st.Barriers == 0 {
		t.Fatalf("journal commits issued no barriers: %+v", st)
	}

	// The engine shows up on the metrics plane.
	m := ktrace.NewMetrics()
	k.RegisterMetrics(m)
	if v, ok := m.Lookup("kio", "completed"); !ok || v == 0 {
		t.Fatalf("kio metrics missing from the kernel metrics plane (completed=%d, ok=%v)", v, ok)
	}

	// No oopses, no ownership violations from the async plumbing.
	if evs := k.Recorder.Events(); len(evs) != 0 {
		t.Fatalf("async I/O oopsed: %v", evs)
	}
	if k.Checker.Count() != 0 {
		t.Fatalf("ownership violations: %v", k.Checker.Violations())
	}
}

// TestKernelAsyncIOMatchesSync writes the same tree through an async
// and a sync kernel and compares the observable file contents — the
// engine must be a pure performance substitution.
func TestKernelAsyncIOMatchesSync(t *testing.T) {
	tree := func(async bool) map[string]string {
		k, err := New(Config{Seed: 21, CaptureOops: true, AsyncIO: async})
		if err != kbase.EOK {
			t.Fatalf("New(async=%v): %v", async, err)
		}
		defer k.Close()
		if err := k.VFS.Mkdir(k.Task, "/d"); err != kbase.EOK {
			t.Fatalf("Mkdir: %v", err)
		}
		paths := []string{"/a", "/d/b", "/d/c"}
		for i, p := range paths {
			writeThrough(t, k.VFS, k.Task, p, fmt.Sprintf("content-%d", i))
		}
		if err := k.VFS.Unlink(k.Task, "/d/c"); err != kbase.EOK {
			t.Fatalf("Unlink: %v", err)
		}
		if err := k.VFS.SyncAll(k.Task); err != kbase.EOK {
			t.Fatalf("SyncAll: %v", err)
		}
		out := map[string]string{}
		for _, p := range []string{"/a", "/d/b"} {
			out[p] = readThrough(t, k.VFS, k.Task, p)
		}
		if _, err := k.VFS.Open(k.Task, "/d/c", vfs.ORdOnly); err != kbase.ENOENT {
			t.Fatalf("unlinked file open = %v, want ENOENT", err)
		}
		return out
	}
	syncTree := tree(false)
	asyncTree := tree(true)
	for p, want := range syncTree {
		if asyncTree[p] != want {
			t.Fatalf("%s: async %q != sync %q", p, asyncTree[p], want)
		}
	}
}

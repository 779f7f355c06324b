package safelinux

import (
	"strings"
	"testing"
	"time"

	"safelinux/internal/linuxlike/ebpflike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/vfs"
)

// TestKernelRegisterMetrics boots a kernel, drives I/O, and checks the
// unified metrics plane sees every wired subsystem move.
func TestKernelRegisterMetrics(t *testing.T) {
	k, err := New(Config{Seed: 11})
	if err != kbase.EOK {
		t.Fatalf("boot: %v", err)
	}
	defer k.Close()

	m := ktrace.NewMetrics()
	k.RegisterMetrics(m)

	fd, err := k.VFS.Open(k.Task, "/obs", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("open: %v", err)
	}
	if _, err := k.VFS.Write(k.Task, fd, []byte(strings.Repeat("x", 4096))); err != kbase.EOK {
		t.Fatalf("write: %v", err)
	}
	k.VFS.Close(fd)
	for i := 0; i < 5; i++ {
		if _, err := k.VFS.Stat(k.Task, "/obs"); err != kbase.EOK {
			t.Fatalf("stat: %v", err)
		}
	}

	for _, probe := range []struct{ sub, name string }{
		{"blockdev", "writes"},
		{"bufcache", "hits"},
		{"journal", "commits"},
		{"vfs", "dcache_hits"},
	} {
		v, ok := m.Lookup(probe.sub, probe.name)
		if !ok {
			t.Errorf("metric %s.%s not registered", probe.sub, probe.name)
			continue
		}
		if v == 0 {
			t.Errorf("metric %s.%s = 0 after I/O", probe.sub, probe.name)
		}
	}
	// The ownership checker is wired even when clean.
	if _, ok := m.Lookup("own", "violations"); !ok {
		t.Error("own.violations not registered")
	}

	// The legacy shims and the registry read the same counters.
	hits, _, _ := k.VFS.DcacheStats()
	v, _ := m.Lookup("vfs", "dcache_hits")
	if v != hits {
		t.Errorf("registry dcache_hits %d != DcacheStats shim %d", v, hits)
	}

	text := m.RenderText()
	if !strings.Contains(text, "blockdev.writes ") {
		t.Errorf("RenderText missing blockdev.writes:\n%s", text)
	}

	// After UpgradeTCP the safe endpoints join the plane.
	if err := k.UpgradeTCP(); err != kbase.EOK {
		t.Fatalf("UpgradeTCP: %v", err)
	}
	m2 := ktrace.NewMetrics()
	k.RegisterMetrics(m2)
	if _, ok := m2.Lookup("safetcp", "segments"); !ok {
		t.Error("safetcp.segments not registered after UpgradeTCP")
	}
}

// TestRegisterMetricsFollowsLiveObjects checks the registry reads the
// engine and device in use now, not the ones wired at registration: a
// kio compartment restart replaces the engine, and UpgradeFS moves the
// root file system onto a new device.
func TestRegisterMetricsFollowsLiveObjects(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 14, AsyncIO: true})
	m := ktrace.NewMetrics()
	k.RegisterMetrics(m)
	syncFile := func(path string) {
		t.Helper()
		writeThrough(t, k.VFS, k.Task, path, strings.Repeat("m", 2048))
		if err := k.VFS.SyncAll(k.Task); err != kbase.EOK {
			t.Fatalf("SyncAll: %v", err)
		}
	}
	lookup := func(sub, name string) uint64 {
		t.Helper()
		v, ok := m.Lookup(sub, name)
		if !ok {
			t.Fatalf("metric %s.%s not registered", sub, name)
		}
		return v
	}

	syncFile("/before")
	old := k.IOEngine()
	k.Plane.Get("kio").InjectPanic(1)
	b := old.NewBatch()
	b.Read(1, make([]byte, old.BlockSize()), 0)
	if err := b.Submit().Err(); err != kbase.EFAULT {
		t.Fatalf("faulted submit = %v, want EFAULT", err)
	}
	if !k.Plane.WaitHealthy("kio", 5*time.Second) {
		t.Fatalf("kio did not restart")
	}
	k.Plane.Settle()
	if k.IOEngine() == old {
		t.Fatal("restart kept the old engine")
	}
	completed := lookup("kio", "completed")
	syncFile("/after")
	if got := lookup("kio", "completed"); got <= completed {
		t.Fatalf("kio.completed %d -> %d across I/O on the restarted engine", completed, got)
	}

	if err := k.UpgradeFS(); err != kbase.EOK {
		t.Fatalf("UpgradeFS: %v", err)
	}
	writes := lookup("blockdev", "writes")
	syncFile("/safe")
	if got := lookup("blockdev", "writes"); got <= writes {
		t.Fatalf("blockdev.writes %d -> %d across safefs writes", writes, got)
	}
}

// TestAttachFiltersKernelEvents is the whole-stack integration test of
// the verified-probe plane: a program attached to vfs:lookup filters
// dcache misses out of the ring while real workload drives the VFS.
func TestAttachFiltersKernelEvents(t *testing.T) {
	k, err := New(Config{Seed: 12})
	if err != kbase.EOK {
		t.Fatalf("boot: %v", err)
	}
	defer k.Close()

	ring := ktrace.ResizeBuffer(64)
	tp := ktrace.Lookup("vfs:lookup")
	if tp == nil {
		t.Fatal("vfs:lookup tracepoint not registered")
	}

	// Keep only dcache hits: a1 (ctx offset 24) != 0.
	prog, perr := ebpflike.Verify([]ebpflike.Inst{
		{Op: ebpflike.OpLdCtx32, Dst: 0, Src: 0, Imm: 24},
		{Op: ebpflike.OpRet, Dst: 0},
	}, ktrace.EventCtxSize)
	if perr != nil {
		t.Fatalf("verify: %v", perr)
	}
	probe, kerr := ktrace.Attach(tp, prog)
	if kerr != kbase.EOK {
		t.Fatalf("attach: %v", kerr)
	}
	defer probe.Detach()

	// First touch misses the dcache, repeats hit it.
	if err := k.VFS.Mkdir(k.Task, "/probe"); err != kbase.EOK {
		t.Fatalf("mkdir: %v", err)
	}
	fd, err := k.VFS.Open(k.Task, "/probe/f", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("open: %v", err)
	}
	k.VFS.Close(fd)
	for i := 0; i < 20; i++ {
		if _, err := k.VFS.Stat(k.Task, "/probe/f"); err != kbase.EOK {
			t.Fatalf("stat: %v", err)
		}
	}

	if probe.Matched() == 0 {
		t.Fatal("probe matched no lookups")
	}
	if probe.Dropped() == 0 {
		t.Fatal("probe dropped no lookups (misses should be filtered)")
	}
	for _, e := range ring.Snapshot() {
		if e.Name == "vfs:lookup" && e.A1 == 0 {
			t.Fatalf("filtered dcache miss leaked into the ring: %+v", e)
		}
	}
	if tp.Filtered() == 0 {
		t.Fatal("tracepoint filtered counter did not move")
	}
}

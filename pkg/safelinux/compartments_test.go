package safelinux

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safefs"
	"safelinux/internal/safemod/safetcp"
	"safelinux/internal/safety/compartment"
)

func bootCompartmented(t *testing.T, cfg Config) *Kernel {
	t.Helper()
	cfg.Compartments = true
	cfg.CaptureOops = true
	k, err := New(cfg)
	if err != kbase.EOK {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(k.Close)
	return k
}

func TestCompartmentsBootAndWire(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 11, AsyncIO: true})
	want := []string{"fs", "net", "buf", "kio", "ebpf"}
	got := k.Plane.Names()
	if len(got) != len(want) {
		t.Fatalf("compartments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("compartments = %v, want %v", got, want)
		}
	}
	if !k.Plane.AllHealthy() {
		t.Fatalf("fresh plane not healthy")
	}
	// Normal operation flows through the boundaries untouched.
	fd, err := k.VFS.Open(k.Task, "/f", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	if _, err := k.VFS.Write(k.Task, fd, []byte("data")); err != kbase.EOK {
		t.Fatalf("Write: %v", err)
	}
	k.VFS.Close(fd)
	if readAll(t, k, "/f") != "data" {
		t.Fatalf("read back mismatch")
	}
	if k.Plane.Get("fs").Inflight() != 0 {
		t.Fatalf("inflight stuck nonzero")
	}
}

// TestFSFaultQuarantineRestart is the fs quarantine-semantics
// scenario: an injected panic inside a VFS call comes back as EFAULT,
// the compartment quarantines and then auto-restarts (remount with
// journal recovery), previously committed data survives, and revoked
// descriptors fail EBADF.
func TestFSFaultQuarantineRestart(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 12})
	fd, err := k.VFS.Open(k.Task, "/keep", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	k.VFS.Write(k.Task, fd, []byte("survives"))
	k.VFS.Fsync(k.Task, fd)

	comp := k.Plane.Get("fs")
	comp.InjectPanic(1)
	if _, err := k.VFS.Stat(k.Task, "/keep"); err != kbase.EFAULT {
		t.Fatalf("faulted op = %v, want EFAULT", err)
	}
	if !k.Plane.WaitHealthy("fs", 5*time.Second) {
		t.Fatalf("fs did not restart; state=%v", comp.State())
	}
	k.Plane.Settle()
	// The old descriptor was revoked by the restart.
	if _, err := k.VFS.Write(k.Task, fd, []byte("x")); err != kbase.EBADF {
		t.Fatalf("revoked fd write = %v, want EBADF", err)
	}
	// Journal-recovered contents are intact.
	if got := readAll(t, k, "/keep"); got != "survives" {
		t.Fatalf("after restart: %q, want %q", got, "survives")
	}
	if comp.Epoch() == 0 {
		t.Fatalf("epoch did not advance across restart")
	}
}

// TestQuarantineFailsFastManualRestart pins the quarantine semantics
// with auto-restart off: quarantined calls return ESHUTDOWN
// immediately (no blocking), a manual restart clears the quarantine.
func TestQuarantineFailsFastManualRestart(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 13})
	k.Plane.SetAutoRestart(false)
	k.Plane.Get("fs").InjectPanic(1)
	if _, err := k.VFS.Stat(k.Task, "/"); err != kbase.EFAULT {
		t.Fatalf("fault = %v", err)
	}
	done := make(chan kbase.Errno, 1)
	go func() {
		_, err := k.VFS.Stat(k.Task, "/")
		done <- err
	}()
	select {
	case err := <-done:
		if err != kbase.ESHUTDOWN {
			t.Fatalf("quarantined op = %v, want ESHUTDOWN", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("quarantined op blocked instead of failing fast")
	}
	if err := k.Plane.Restart("fs"); err != kbase.EOK {
		t.Fatalf("Restart: %v", err)
	}
	if _, err := k.VFS.Stat(k.Task, "/"); err != kbase.EOK {
		t.Fatalf("post-restart op = %v", err)
	}
}

// TestFSPoisonedEnumeration upgrades to safefs, then faults the fs
// compartment and asserts the quarantine report enumerates the live
// safefs-owned state by label.
func TestFSPoisonedEnumeration(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 14})
	k.Plane.SetAutoRestart(false)
	fd, _ := k.VFS.Open(k.Task, "/poisoned", vfs.OWrOnly|vfs.OCreate)
	k.VFS.Write(k.Task, fd, []byte("cells"))
	k.VFS.Close(fd)
	if err := k.UpgradeFS(); err != kbase.EOK {
		t.Fatalf("UpgradeFS: %v", err)
	}
	comp := k.Plane.Get("fs")
	comp.InjectPanic(1)
	if _, err := k.VFS.Stat(k.Task, "/poisoned"); err != kbase.EFAULT {
		t.Fatalf("fault = %v", err)
	}
	f := comp.LastFault()
	if f == nil {
		t.Fatalf("no fault recorded")
	}
	found := false
	for _, l := range f.Poisoned {
		if strings.Contains(l, "poisoned") {
			found = true
		}
		if !strings.HasPrefix(l, "safefs:") {
			t.Fatalf("foreign label %q in poison report", l)
		}
	}
	if !found {
		t.Fatalf("poison report %v missing the file's safefs cell", f.Poisoned)
	}
}

// TestNetFaultContainedAndRestarted is the net quarantine-semantics
// scenario: a panic in packet dispatch is contained (packets drop,
// counted, kernel lives), the supervisor re-attaches the transport,
// and — after an upgrade — the poison report names live safetcp
// buffers.
func TestNetFaultContainedAndRestarted(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 15, Link: netNoLoss()})
	if err := k.StreamRoundTrip(4000, []byte("before")); err != kbase.EOK {
		t.Fatalf("legacy round trip: %v", err)
	}
	comp := k.Plane.Get("net")
	comp.InjectPanic(1)
	// Drive the sim: the next guarded dispatch faults and quarantines;
	// subsequent drops are contained, not crashes.
	k.Sim.Run(5)
	k.Plane.Settle()
	if !k.Plane.WaitHealthy("net", 5*time.Second) {
		t.Fatalf("net did not restart; state=%v", comp.State())
	}
	hostA, hostB := k.Hosts()
	if hostA.Stats().Contained == 0 && hostB.Stats().Contained == 0 {
		t.Fatalf("no contained drops counted")
	}
	if err := k.StreamRoundTrip(4001, []byte("after-restart")); err != kbase.EOK {
		t.Fatalf("round trip after restart: %v", err)
	}
	if comp.LastFault() != nil {
		t.Fatalf("restart did not clear the fault record")
	}
}

// TestNetPoisonedEnumeration faults the net compartment mid-stream on
// the safe transport and asserts the report lists live safetcp cells.
func TestNetPoisonedEnumeration(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 16, Link: netNoLoss()})
	if err := k.UpgradeTCP(); err != kbase.EOK {
		t.Fatalf("UpgradeTCP: %v", err)
	}
	k.Plane.SetAutoRestart(false)
	epA, epB := k.SafeEndpoints()
	ls, err := epB.Listen(5000)
	if err != kbase.EOK {
		t.Fatalf("Listen: %v", err)
	}
	cl, err := epA.Connect(k.hostB.Addr(), 5000)
	if err != kbase.EOK {
		t.Fatalf("Connect: %v", err)
	}
	var srv *safetcp.Conn
	if !k.Sim.RunUntil(func() bool {
		if srv == nil {
			srv, _ = ls.Accept()
		}
		return srv != nil && cl.Established()
	}, 2000) {
		t.Fatalf("handshake did not complete")
	}
	// Put bytes on the wire so receive buffers are live, then fault
	// before they are consumed.
	cl.Send([]byte("poison-payload"))
	k.Sim.RunUntil(func() bool { return srv.Buffered() > 0 }, 2000)
	comp := k.Plane.Get("net")
	comp.InjectPanic(1)
	k.Sim.Run(3)
	f := comp.LastFault()
	if f == nil {
		t.Fatalf("no fault recorded")
	}
	found := false
	for _, l := range f.Poisoned {
		if strings.HasPrefix(l, "safetcp.rx.") {
			found = true
		}
	}
	if !found {
		t.Fatalf("poison report %v missing live safetcp.rx cells", f.Poisoned)
	}
}

// TestHotSwapFSUnderLoad swaps extlike→safefs while fs workers hammer
// the VFS: zero operations fail, data written before and during the
// swap survives, and the registry records the new binding.
func TestHotSwapFSUnderLoad(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 17})
	const workers = 4
	const opsPer = 150
	var wg sync.WaitGroup
	errs := make(chan string, workers*opsPer)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			task := kbase.NewTask()
			for i := 0; i < opsPer; i++ {
				path := fmt.Sprintf("/w%d-%d", w, i)
				fd, err := k.VFS.Open(task, path, vfs.OWrOnly|vfs.OCreate)
				if err != kbase.EOK {
					errs <- fmt.Sprintf("open %s: %v", path, err)
					continue
				}
				if _, err := k.VFS.Write(task, fd, []byte(path)); err != kbase.EOK {
					errs <- fmt.Sprintf("write %s: %v", path, err)
				}
				if err := k.VFS.CloseAs(task, fd); err != kbase.EOK {
					errs <- fmt.Sprintf("close %s: %v", path, err)
				}
			}
		}(w)
	}
	// Let the workers get going, then swap live.
	time.Sleep(2 * time.Millisecond)
	if err := k.HotSwap("fs", safefs.Module{}); err != kbase.EOK {
		t.Fatalf("HotSwap(fs): %v", err)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("worker op failed across swap: %s", e)
	}
	if !k.FSSafe() {
		t.Fatalf("kernel does not report fsSafe after HotSwap")
	}
	mod, err := k.Registry.Lookup(IfaceFS)
	if err != kbase.EOK || mod.ModuleName() != "safefs" {
		t.Fatalf("registry binding = %v/%v", mod, err)
	}
	if k.Plane.Get("fs").Epoch() == 0 {
		t.Fatalf("swap did not advance the fs epoch")
	}
	// Every file written by every worker is present on the new fs.
	for w := 0; w < workers; w++ {
		for i := 0; i < opsPer; i++ {
			path := fmt.Sprintf("/w%d-%d", w, i)
			if _, err := k.VFS.Stat(k.Task, path); err != kbase.EOK {
				t.Fatalf("%s missing after swap: %v", path, err)
			}
		}
	}
	if err := k.HotSwap("fs", safefs.Module{}); err != kbase.EALREADY {
		t.Fatalf("second HotSwap = %v, want EALREADY", err)
	}
}

// TestHotSwapNetUnderLoad swaps legacy TCB→safetcp between client
// interactions driven through StreamRoundTrip: no interaction fails,
// interactions after the swap run on the safe transport.
func TestHotSwapNetUnderLoad(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 18, Link: netNoLoss()})
	done := make(chan struct{})
	var rtErrs []string
	var rtCount int
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			payload := []byte(fmt.Sprintf("interaction-%d", i))
			if err := k.StreamRoundTrip(uint16(6000+i), payload); err != kbase.EOK {
				rtErrs = append(rtErrs, fmt.Sprintf("rt %d: %v", i, err))
			}
			rtCount++
		}
	}()
	time.Sleep(2 * time.Millisecond)
	if err := k.HotSwap("net", safetcp.Module{}); err != kbase.EOK {
		t.Fatalf("HotSwap(net): %v", err)
	}
	<-done
	for _, e := range rtErrs {
		t.Errorf("round trip failed across swap: %s", e)
	}
	if rtCount != 30 {
		t.Fatalf("driver stopped early: %d/30", rtCount)
	}
	if !k.TCPSafe() {
		t.Fatalf("kernel does not report tcpSafe after HotSwap")
	}
	mod, err := k.Registry.Lookup(IfaceStream)
	if err != kbase.EOK || mod.ModuleName() != "safetcp" {
		t.Fatalf("registry binding = %v/%v", mod, err)
	}
	epA, epB := k.SafeEndpoints()
	if epA == nil || epB == nil {
		t.Fatalf("safe endpoints not attached by HotSwap")
	}
}

// TestHotSwapRequiresCompartments pins the ENOSYS contract.
func TestHotSwapRequiresCompartments(t *testing.T) {
	k := bootKernel(t)
	if err := k.HotSwap("fs", safefs.Module{}); err != kbase.ENOSYS {
		t.Fatalf("HotSwap without compartments = %v, want ENOSYS", err)
	}
	// StreamRoundTrip still works without a plane (no hold, no gate).
	if err := k.StreamRoundTrip(4500, []byte("plain")); err != kbase.EOK {
		t.Fatalf("round trip without compartments: %v", err)
	}
}

// TestFaultInOneCompartmentLeavesOthersServing injects a panic into
// the buf compartment while fs-level traffic continues on other paths
// and the net compartment serves round trips: the blast radius is the
// faulted compartment only.
func TestFaultInOneCompartmentLeavesOthersServing(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 19, Link: netNoLoss()})
	k.Plane.Get("buf").InjectPanic(1)
	// Trip the buf boundary: a write path touches the cache.
	fd, err := k.VFS.Open(k.Task, "/tripwire", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK && err != kbase.EFAULT {
		t.Fatalf("Open: %v", err)
	}
	if err == kbase.EOK {
		k.VFS.Write(k.Task, fd, []byte("x"))
		k.VFS.Fsync(k.Task, fd)
		k.VFS.Close(fd)
	}
	if k.Plane.Get("buf").LastFault() == nil && k.Plane.Get("buf").State() == compartment.Healthy {
		// The injected fault may not have tripped yet if no cache entry
		// was crossed; force one.
		k.VFS.SyncAll(k.Task)
	}
	// Net keeps serving regardless of buf's state.
	if err := k.StreamRoundTrip(4700, []byte("unaffected")); err != kbase.EOK {
		t.Fatalf("net round trip during buf fault: %v", err)
	}
	if !k.Plane.WaitHealthy("buf", 5*time.Second) {
		t.Fatalf("buf did not restart")
	}
	k.Plane.Settle()
	// fs traffic is healthy again end to end.
	fd2, err := k.VFS.Open(k.Task, "/after", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open after restart: %v", err)
	}
	k.VFS.Write(k.Task, fd2, []byte("y"))
	k.VFS.Close(fd2)
}

// netNoLoss is a deterministic loss-free link so round-trip counts in
// swap tests do not depend on retransmission luck.
func netNoLoss() net.LinkParams { return net.LinkParams{Delay: 1} }

// Compartment kernel: crash containment boundaries and live module
// hot-swap for the assembled kernel.
//
// With Config.Compartments set, New wraps every swappable subsystem in
// a containment compartment and starts a supervisor plane over them:
//
//	fs    — the VFS public surface (and everything below it: the
//	        mounted file system, dcache, journal)
//	net   — both hosts' packet and timer dispatch (the protocol
//	        machinery, legacy TCB or installed StreamProto)
//	buf   — the root file system's buffer cache entry points
//	kio   — async I/O batch submission (AsyncIO kernels only)
//	ebpf  — verified probe evaluation inside tracepoint emission
//	        (quiet: its boundary must not emit tracepoints)
//
// A panic inside any of these comes back to the caller as a typed
// EFAULT, the compartment quarantines (subsequent calls fail fast with
// ESHUTDOWN), the ownership checker enumerates the shared state the
// dead compartment still held, and the supervisor rebuilds the
// subsystem from clean state — remount with journal/log recovery for
// fs, a protocol re-attach for net, a cache invalidation for buf, a
// fresh engine for kio — while the rest of the kernel keeps serving.
//
// The same in-flight gate powers HotSwap: drain the compartment (new
// entries queue, in-flight entries retire), migrate the module on a
// supervisor task, swap the registry binding, and release the queued
// callers — a live module replacement under load with zero dropped
// operations, observed only as a latency blip (cmd/swapbench).
package safelinux

import (
	"time"

	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safefs"
	"safelinux/internal/safemod/safetcp"
	"safelinux/internal/safety/compartment"
	"safelinux/internal/safety/module"
)

// enableCompartments builds the containment plane and installs a
// boundary on every swappable subsystem. Called from New when
// Config.Compartments is set.
func (k *Kernel) enableCompartments() {
	p := compartment.NewPlane()
	k.Plane = p

	fs := p.Add("fs", compartment.Options{
		Poisoned: func() []string { return k.Checker.LiveLabels("safefs:") },
		Restart:  k.restartFS,
	})
	k.VFS.SetBoundary(fs)

	netc := p.Add("net", compartment.Options{
		Poisoned: func() []string { return k.Checker.LiveLabels("safetcp") },
		Restart:  k.restartNet,
	})
	k.hostA.SetBoundary(netc)
	k.hostB.SetBoundary(netc)

	p.Add("buf", compartment.Options{
		Poisoned: func() []string { return k.Checker.LiveLabels("bufcache") },
		Restart:  k.restartBuf,
	})

	if k.ioEngine != nil {
		kioC := p.Add("kio", compartment.Options{
			Poisoned: func() []string { return k.Checker.LiveLabels("kio") },
			Restart:  k.restartKio,
		})
		k.ioEngine.SetBoundary(kioC)
	}

	// The observability compartment has no subsystem state to rebuild:
	// ebpflike programs are verified, stateless register machines, so a
	// restart only clears the quarantine. Quiet — its boundary runs
	// inside tracepoint emission and must not emit tracepoints itself.
	ebpf := p.Add("ebpf", compartment.Options{
		Quiet:   true,
		Restart: func(*kbase.Task) kbase.Errno { return kbase.EOK },
	})
	ktrace.SetProbeGuard(ebpf.GuardProbe)

	k.wireRootFS(k.Task)
}

// wireRootFS (re)wires per-instance plumbing onto the currently
// mounted root file system: the buffer-cache boundary and, on AsyncIO
// kernels, the kio engine behind the journal and cache. Called at
// enable time and again from restart hooks, which hand in a supervisor
// task so the resolve bypasses a drained fs gate.
func (k *Kernel) wireRootFS(task *kbase.Task) {
	root, err := k.VFS.Resolve(task, "/")
	if err != kbase.EOK {
		return
	}
	inst, ok := extlike.InstanceOf(root.Sb)
	if !ok {
		return // safefs root: no buffer cache, no kio consumer
	}
	if k.Plane != nil {
		if c := k.Plane.Get("buf"); c != nil {
			inst.Cache().SetBoundary(c)
		}
	}
	if k.ioEngine != nil {
		inst.Journal().SetEngine(k.ioEngine)
		inst.Cache().SetEngine(k.ioEngine)
	}
}

// restartFS rebuilds the file-system compartment from clean state.
// Crash semantics, then recovery: every open descriptor is revoked
// (subsequent use fails EBADF — open files reference state the dead
// instance may have poisoned), the root mount is force-detached
// without calling into the dead file system, and the root device is
// remounted fresh — extlike replays its journal, safefs replays its
// log — exactly the path a reboot would take, minus the reboot.
func (k *Kernel) restartFS(task *kbase.Task) kbase.Errno {
	k.VFS.CloseAll()
	// Force-detach: crash semantics. ENOENT here just means the dead
	// instance never finished mounting — either way the slate is clean.
	_ = k.VFS.DropMount("/")
	if k.fsSafe {
		data := vfs.NewMountData(&safefs.MountData{Disk: k.safeDev, Checker: k.Checker})
		if err := k.VFS.Mount(task, "/", "safefs", data); err != kbase.EOK {
			return err
		}
	} else {
		if err := k.VFS.Mount(task, "/", "extlike", vfs.NewMountData(&extlike.MountData{Dev: k.rootDev})); err != kbase.EOK {
			return err
		}
	}
	k.wireRootFS(task)
	return kbase.EOK
}

// restartNet rebuilds the network compartment: all protocol state on
// both hosts is discarded (established connections die with the stack
// that owned them — UDP sockets survive) and the transport the
// registry currently binds is re-attached.
func (k *Kernel) restartNet(task *kbase.Task) kbase.Errno {
	k.hostA.ResetStreams()
	k.hostB.ResetStreams()
	if k.tcpSafe {
		k.safeEPA = safetcp.Attach(k.hostA, k.Checker)
		k.safeEPB = safetcp.Attach(k.hostB, k.Checker)
	}
	return kbase.EOK
}

// restartBuf rebuilds the buffer-cache compartment by dropping every
// cached buffer — a crash destroys RAM; readers re-fetch from the
// device, unflushed writes are lost to the journal's crash semantics.
func (k *Kernel) restartBuf(task *kbase.Task) kbase.Errno {
	root, err := k.VFS.Resolve(task, "/")
	if err != kbase.EOK {
		return err
	}
	if inst, ok := extlike.InstanceOf(root.Sb); ok {
		inst.Cache().Invalidate()
	}
	return kbase.EOK
}

// restartKio replaces the async I/O engine with a fresh one and
// re-wires the journal and buffer cache onto it. The dead engine is
// closed best-effort: its workers drain what they hold, and a panic
// out of a poisoned engine must not escape the restart path.
func (k *Kernel) restartKio(task *kbase.Task) kbase.Errno {
	old := k.ioEngine
	k.ioEngine = kio.New(k.rootDev, kio.Config{Checker: k.Checker})
	if c := k.Plane.Get("kio"); c != nil {
		k.ioEngine.SetBoundary(c)
	}
	k.wireRootFS(task)
	if old != nil {
		func() {
			defer func() { _ = recover() }()
			old.Close()
		}()
	}
	return kbase.EOK
}

// HotSwap replaces a live module on a running kernel: drain the
// subsystem's compartment (new callers queue at the gate, in-flight
// operations retire), migrate to the new module on a supervisor task,
// record the swap in the registry, and release the queued callers onto
// the new binding. No operation is dropped or failed by the swap —
// callers observe it only as added latency (measured by cmd/swapbench
// as a p99 blip).
//
// kind selects the compartment: "fs" accepts the safefs module
// (extlike→safefs, the UpgradeFS migration under drain), "net" accepts
// the safetcp module (legacy TCB→safetcp). Requires
// Config.Compartments; returns ENOSYS without it, EALREADY if the
// module is already live, and EBUSY if the drain cannot complete
// within compartment.DrainTimeout.
func (k *Kernel) HotSwap(kind string, m module.Module) kbase.Errno {
	if k.Plane == nil {
		return kbase.ENOSYS
	}
	var comp *compartment.Compartment
	var migrate func(*kbase.Task) kbase.Errno
	switch kind {
	case "fs":
		if m.ModuleName() != "safefs" {
			return kbase.EINVAL
		}
		if k.fsSafe {
			return kbase.EALREADY
		}
		comp = k.Plane.Get("fs")
		migrate = k.migrateFS
	case "net":
		if m.ModuleName() != "safetcp" {
			return kbase.EINVAL
		}
		if k.tcpSafe {
			return kbase.EALREADY
		}
		comp = k.Plane.Get("net")
		migrate = k.migrateTCP
	default:
		return kbase.EINVAL
	}
	start := time.Now()
	if err := comp.BeginDrain(compartment.Draining); err != kbase.EOK {
		return err
	}
	task := kbase.NewSupervisorTask()
	err := func() (err kbase.Errno) {
		defer func() {
			if r := recover(); r != nil {
				err = kbase.EFAULT
			}
		}()
		return migrate(task)
	}()
	if err == kbase.EOK {
		if _, e := k.Registry.Swap(m, module.SwapPolicy{}); e != kbase.EOK {
			err = e
		}
	}
	if err != kbase.EOK {
		// Failed migration: release the queued callers onto whatever
		// binding survived rather than leaving them blocked.
		comp.EndDrain("", 0)
		return err
	}
	comp.EndDrain("swap", time.Since(start))
	return kbase.EOK
}

// StreamRoundTrip performs one complete client interaction on the
// kernel's stream transport — listen on host B, connect from host A,
// send payload, echo it back, verify, close — driving the network
// simulator itself until each phase completes. With compartments on,
// the whole interaction runs under a single net-compartment hold, so a
// hot-swap or restart drain lands between interactions, never inside
// one: an in-flight interaction finishes on the stack it started on,
// the next queued one starts on the new stack.
func (k *Kernel) StreamRoundTrip(port uint16, payload []byte) kbase.Errno {
	if k.Plane != nil {
		if c := k.Plane.Get("net"); c != nil {
			release, err := c.Hold(k.Task, "roundtrip")
			if err != kbase.EOK {
				return err
			}
			defer release()
		}
	}
	if k.tcpSafe {
		return k.roundTripSafe(port, payload)
	}
	return k.roundTripLegacy(port, payload)
}

// roundTripStepBudget bounds how many simulator steps one round trip
// may consume before giving up with ETIMEDOUT (a quarantined net
// compartment drops every packet, and the interaction must fail typed,
// not spin).
const roundTripStepBudget = 5000

func (k *Kernel) roundTripLegacy(port uint16, payload []byte) kbase.Errno {
	ls, err := k.hostB.ListenTCP(port)
	if err != kbase.EOK {
		return err
	}
	defer ls.Close()
	cl, err := k.hostA.ConnectTCP(k.hostB.Addr(), port)
	if err != kbase.EOK {
		return err
	}
	defer cl.Close()

	var srv *net.Socket
	if !k.Sim.RunUntil(func() bool {
		if srv == nil {
			srv, _ = ls.Accept()
		}
		return srv != nil && cl.Established()
	}, roundTripStepBudget) {
		return kbase.ETIMEDOUT
	}
	defer srv.Close()
	if err := cl.Send(payload); err != kbase.EOK {
		return err
	}

	// Server echoes everything it receives back at the client.
	buf := make([]byte, len(payload))
	echoed, got := 0, 0
	var ioErr kbase.Errno = kbase.EOK
	if !k.Sim.RunUntil(func() bool {
		for echoed < len(payload) {
			n, e := srv.Recv(buf)
			if e == kbase.EAGAIN || n == 0 {
				break
			}
			if e != kbase.EOK {
				ioErr = e
				return true
			}
			if e := srv.Send(buf[:n]); e != kbase.EOK {
				ioErr = e
				return true
			}
			echoed += n
		}
		for got < len(payload) {
			n, e := cl.Recv(buf)
			if e == kbase.EAGAIN || n == 0 {
				break
			}
			if e != kbase.EOK {
				ioErr = e
				return true
			}
			got += n
		}
		return got >= len(payload)
	}, roundTripStepBudget) {
		return kbase.ETIMEDOUT
	}
	return ioErr
}

func (k *Kernel) roundTripSafe(port uint16, payload []byte) kbase.Errno {
	epA, epB := k.safeEPA, k.safeEPB
	if epA == nil || epB == nil {
		return kbase.ENOTCONN
	}
	ls, err := epB.Listen(port)
	if err != kbase.EOK {
		return err
	}
	defer ls.Close()
	cl, err := epA.Connect(k.hostB.Addr(), port)
	if err != kbase.EOK {
		return err
	}
	defer cl.Close()

	var srv *safetcp.Conn
	if !k.Sim.RunUntil(func() bool {
		if srv == nil {
			srv, _ = ls.Accept()
		}
		return srv != nil && cl.Established()
	}, roundTripStepBudget) {
		return kbase.ETIMEDOUT
	}
	defer srv.Close()
	if err := cl.Send(payload); err != kbase.EOK {
		return err
	}

	buf := make([]byte, len(payload))
	echoed, got := 0, 0
	var ioErr kbase.Errno = kbase.EOK
	if !k.Sim.RunUntil(func() bool {
		for echoed < len(payload) {
			n, e := srv.Recv(buf)
			if e == kbase.EAGAIN || n == 0 {
				break
			}
			if e != kbase.EOK {
				ioErr = e
				return true
			}
			if e := srv.Send(buf[:n]); e != kbase.EOK {
				ioErr = e
				return true
			}
			echoed += n
		}
		for got < len(payload) {
			n, e := cl.Recv(buf)
			if e == kbase.EAGAIN || n == 0 {
				break
			}
			if e != kbase.EOK {
				ioErr = e
				return true
			}
			got += n
		}
		return got >= len(payload)
	}, roundTripStepBudget) {
		return kbase.ETIMEDOUT
	}
	return ioErr
}

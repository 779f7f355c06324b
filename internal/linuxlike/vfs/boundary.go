package vfs

import (
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
)

// Boundary is the crash-containment hook: when installed, every public
// VFS operation is routed through it, so a panic anywhere below the
// syscall surface (VFS internals, the mounted file system, the buffer
// cache it calls into) is recovered at this line and converted to a
// typed error instead of killing the kernel. The interface is
// satisfied by *compartment.Compartment (structural typing keeps this
// package free of a safety-layer import).
//
// Only the OUTERMOST public entry points route through the boundary;
// internal calls between operations use the unexported doX
// implementations directly. This matters for the drain protocol: a
// nested boundary entry during a drain would wait for the drain that
// is waiting for it.
type Boundary interface {
	Do(task *kbase.Task, op string, fn func() kbase.Errno) kbase.Errno
}

// boundaryBox wraps the interface for atomic installation: workloads
// are already running when the containment plane is wired in.
type boundaryBox struct{ b Boundary }

// SetBoundary installs (or, with nil, removes) the containment
// boundary around the public VFS surface.
func (v *VFS) SetBoundary(b Boundary) {
	if b == nil {
		v.boundary.Store(nil)
		return
	}
	v.boundary.Store(&boundaryBox{b: b})
}

// Every public operation has a pre-registered latency-plane Op: the
// VFS dispatch is where user-visible latency is defined, so this is
// where request spans root and where the per-op histograms (exported
// as vfs.<op>_ns) are fed. Ops are identities, not strings — the
// enabled path never hashes a name (see ktrace.Op).
var (
	opMount    = ktrace.NewOp("vfs:mount")
	opUnmount  = ktrace.NewOp("vfs:unmount")
	opResolve  = ktrace.NewOp("vfs:resolve")
	opOpen     = ktrace.NewOp("vfs:open")
	opClose    = ktrace.NewOp("vfs:close")
	opRead     = ktrace.NewOp("vfs:read")
	opPread    = ktrace.NewOp("vfs:pread")
	opWrite    = ktrace.NewOp("vfs:write")
	opPwrite   = ktrace.NewOp("vfs:pwrite")
	opLseek    = ktrace.NewOp("vfs:lseek")
	opFsync    = ktrace.NewOp("vfs:fsync")
	opTruncate = ktrace.NewOp("vfs:truncate")
	opStat     = ktrace.NewOp("vfs:stat")
	opMkdir    = ktrace.NewOp("vfs:mkdir")
	opRmdir    = ktrace.NewOp("vfs:rmdir")
	opUnlink   = ktrace.NewOp("vfs:unlink")
	opRename   = ktrace.NewOp("vfs:rename")
	opReadDir  = ktrace.NewOp("vfs:readdir")
	opStatfs   = ktrace.NewOp("vfs:statfs")
	opSyncAll  = ktrace.NewOp("vfs:syncall")
)

// guard routes one errno-only operation through the boundary, or runs
// it directly when no boundary is installed. It is also the span
// root / histogram site for the operation.
func (v *VFS) guard(task *kbase.Task, op *ktrace.Op, fn func() kbase.Errno) kbase.Errno {
	t := op.Begin(task)
	defer t.End()
	box := v.boundary.Load()
	if box == nil {
		return fn()
	}
	return box.b.Do(task, op.Short(), fn)
}

// guardRet routes a value-returning operation through the boundary.
// On containment the caller sees the zero value with the boundary's
// typed error (EFAULT for a contained fault, ESHUTDOWN while
// quarantined).
func guardRet[T any](v *VFS, task *kbase.Task, op *ktrace.Op, fn func() (T, kbase.Errno)) (T, kbase.Errno) {
	t := op.Begin(task)
	defer t.End()
	box := v.boundary.Load()
	if box == nil {
		return fn()
	}
	var out T
	err := box.b.Do(task, op.Short(), func() kbase.Errno {
		var e kbase.Errno
		out, e = fn()
		return e
	})
	if err != kbase.EOK {
		var zero T
		return zero, err
	}
	return out, kbase.EOK
}

// Mount mounts fstype at path with fs-specific data. Path must be "/"
// or an existing directory on an already-mounted file system.
func (v *VFS) Mount(task *kbase.Task, path, fstype string, data MountData) kbase.Errno {
	return v.guard(task, opMount, func() kbase.Errno { return v.doMount(task, path, fstype, data) })
}

// Unmount detaches the file system at path.
func (v *VFS) Unmount(task *kbase.Task, path string) kbase.Errno {
	return v.guard(task, opUnmount, func() kbase.Errno { return v.doUnmount(task, path) })
}

// Resolve walks path to an inode.
func (v *VFS) Resolve(task *kbase.Task, path string) (*Inode, kbase.Errno) {
	return guardRet(v, task, opResolve, func() (*Inode, kbase.Errno) { return v.doResolve(task, path) })
}

// Open opens path, honoring OCreate/OExcl/OTrunc, and returns a file
// descriptor.
func (v *VFS) Open(task *kbase.Task, path string, flags int) (int, kbase.Errno) {
	return guardRet(v, task, opOpen, func() (int, kbase.Errno) { return v.doOpen(task, path, flags) })
}

// Close closes a descriptor as task 0. A last close runs the file
// system's Release hook, and lockdep folds every task-0 caller into
// one task, so concurrent callers must use CloseAs with their own task
// or lockdep records false inversions between them.
func (v *VFS) Close(fd int) kbase.Errno {
	return v.guard(nil, opClose, func() kbase.Errno { return v.doClose(nil, fd) })
}

// CloseAs is Close with caller-supplied task context: a supervisor
// task closing descriptors mid-migration must bypass the drained gate
// it is itself holding shut.
func (v *VFS) CloseAs(task *kbase.Task, fd int) kbase.Errno {
	return v.guard(task, opClose, func() kbase.Errno { return v.doClose(task, fd) })
}

// Read reads from the file position.
func (v *VFS) Read(task *kbase.Task, fd int, buf []byte) (int, kbase.Errno) {
	return guardRet(v, task, opRead, func() (int, kbase.Errno) { return v.doRead(task, fd, buf) })
}

// Pread reads at an explicit offset without moving the position.
func (v *VFS) Pread(task *kbase.Task, fd int, buf []byte, off int64) (int, kbase.Errno) {
	return guardRet(v, task, opPread, func() (int, kbase.Errno) { return v.doPread(task, fd, buf, off) })
}

// Write writes at the file position (or end, with OAppend) using the
// legacy write_begin / write_copy / write_end protocol.
func (v *VFS) Write(task *kbase.Task, fd int, data []byte) (int, kbase.Errno) {
	return guardRet(v, task, opWrite, func() (int, kbase.Errno) { return v.doWrite(task, fd, data) })
}

// Pwrite writes at an explicit offset.
func (v *VFS) Pwrite(task *kbase.Task, fd int, data []byte, off int64) (int, kbase.Errno) {
	return guardRet(v, task, opPwrite, func() (int, kbase.Errno) { return v.doPwrite(task, fd, data, off) })
}

// Lseek repositions the file offset.
func (v *VFS) Lseek(task *kbase.Task, fd int, off int64, whence int) (int64, kbase.Errno) {
	return guardRet(v, task, opLseek, func() (int64, kbase.Errno) { return v.doLseek(task, fd, off, whence) })
}

// Fsync flushes one file.
func (v *VFS) Fsync(task *kbase.Task, fd int) kbase.Errno {
	return v.guard(task, opFsync, func() kbase.Errno { return v.doFsync(task, fd) })
}

// Truncate sets a file's size by path.
func (v *VFS) Truncate(task *kbase.Task, path string, size int64) kbase.Errno {
	return v.guard(task, opTruncate, func() kbase.Errno { return v.doTruncate(task, path, size) })
}

// Stat returns metadata for path.
func (v *VFS) Stat(task *kbase.Task, path string) (Stat, kbase.Errno) {
	return guardRet(v, task, opStat, func() (Stat, kbase.Errno) { return v.doStat(task, path) })
}

// Mkdir creates a directory.
func (v *VFS) Mkdir(task *kbase.Task, path string) kbase.Errno {
	return v.guard(task, opMkdir, func() kbase.Errno { return v.doMkdir(task, path) })
}

// Rmdir removes an empty directory.
func (v *VFS) Rmdir(task *kbase.Task, path string) kbase.Errno {
	return v.guard(task, opRmdir, func() kbase.Errno { return v.doRmdir(task, path) })
}

// Unlink removes a file.
func (v *VFS) Unlink(task *kbase.Task, path string) kbase.Errno {
	return v.guard(task, opUnlink, func() kbase.Errno { return v.doUnlink(task, path) })
}

// Rename moves oldPath to newPath. Cross-mount renames return EXDEV.
func (v *VFS) Rename(task *kbase.Task, oldPath, newPath string) kbase.Errno {
	return v.guard(task, opRename, func() kbase.Errno { return v.doRename(task, oldPath, newPath) })
}

// ReadDir lists a directory.
func (v *VFS) ReadDir(task *kbase.Task, path string) ([]DirEntry, kbase.Errno) {
	return guardRet(v, task, opReadDir, func() ([]DirEntry, kbase.Errno) { return v.doReadDir(task, path) })
}

// Statfs reports usage of the file system owning path.
func (v *VFS) Statfs(task *kbase.Task, path string) (StatFS, kbase.Errno) {
	return guardRet(v, task, opStatfs, func() (StatFS, kbase.Errno) { return v.doStatfs(task, path) })
}

// SyncAll flushes every mounted file system.
func (v *VFS) SyncAll(task *kbase.Task) kbase.Errno {
	return v.guard(task, opSyncAll, func() kbase.Errno { return v.doSyncAll(task) })
}

// CloseAll force-closes every open descriptor and returns how many it
// closed. The containment supervisor calls this when restarting a
// crashed file system compartment: open files reference state the
// dead instance may have poisoned, so they are revoked — subsequent
// operations on those descriptors fail with EBADF, the crash-visible
// edge of an otherwise transparent restart.
func (v *VFS) CloseAll() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := len(v.files)
	// Drop the open counts but skip Release hooks: the owning
	// instance just crashed and is being rebuilt from its journal —
	// calling into its poisoned state would be worse than the
	// storage leak crash recovery already implies.
	for _, f := range v.files {
		f.Inode.openUnref()
	}
	v.files = make(map[int]*File)
	return n
}

// RemapDescriptors re-points every open descriptor whose inode lives
// on oldSb at the inode resolve returns for the descriptor's open
// path — the live hot-swap migration: the tree has been copied to the
// new file system, so every path resolves to equivalent content, and
// a descriptor held open across the swap keeps working with its
// position intact. Returns how many descriptors were remapped. A path
// that fails to resolve (an open-but-unlinked orphan has no copy)
// aborts with its error; the caller must then abandon the swap, since
// some descriptors may already point at the new file system.
func (v *VFS) RemapDescriptors(oldSb *SuperBlock, resolve func(path string) (*Inode, kbase.Errno)) (int, kbase.Errno) {
	v.mu.Lock()
	var files []*File
	for _, f := range v.files {
		if f.Inode.Sb == oldSb {
			files = append(files, f)
		}
	}
	v.mu.Unlock()
	for i, f := range files {
		ino, err := resolve(f.path)
		if err != kbase.EOK {
			return i, err
		}
		f.mu.Lock()
		// Move the open count with the descriptor. No Release on the
		// old inode: the old file system is retired wholesale after
		// the swap, storage and all.
		f.Inode.openUnref()
		ino.openRef()
		f.Inode = ino
		f.mu.Unlock()
	}
	return len(files), kbase.EOK
}

// DropMount force-detaches the mount at path without consulting the
// file system (no Unmount call into possibly-poisoned code) and
// without the open-files check — CloseAll first. Restart-path only;
// returns EINVAL if nothing is mounted there.
func (v *VFS) DropMount(path string) kbase.Errno {
	path = CleanPath(path)
	v.mu.Lock()
	idx := -1
	for i, m := range v.mounts {
		if m.path == path {
			idx = i
			break
		}
	}
	if idx < 0 {
		v.mu.Unlock()
		return kbase.EINVAL
	}
	sb := v.mounts[idx].sb
	v.mounts = append(v.mounts[:idx], v.mounts[idx+1:]...)
	v.mu.Unlock()
	v.dcache.invalidateSB(sb)
	return kbase.EOK
}

package extlike

import (
	"sync"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/journal"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safety/typedapi"
)

// FS is the extlike file system type. The exported knobs inject the
// legacy bug classes the fault campaigns exercise; all default off.
type FS struct {
	// LeakOnUnlink skips freeing data blocks when the last link goes
	// away — a resource-leak bug (kmemleak class).
	LeakOnUnlink bool
	// SkipJournal performs metadata updates without journaling them,
	// a crash-consistency bug invisible to normal operation.
	SkipJournal bool
	// SkipSizeLock updates i_size without i_lock on the write path
	// (§4.3's "maybe protected" pathology).
	SkipSizeLock bool
	// ConfuseWriteEnd makes WriteBegin return the wrong dynamic type
	// (§4.2's void* type-confusion pathology).
	ConfuseWriteEnd bool
}

// Name implements vfs.FileSystemType.
func (f *FS) Name() string { return "extlike" }

// MountData is what the mount data envelope must contain.
type MountData struct {
	Dev *blockdev.Device
	// CacheSize bounds the buffer cache (0 = unbounded).
	CacheSize int
}

// Lock classes for the fine-grained locking scheme. The big fs lock
// is gone; the hierarchy is
//
//	rename > dir_inode > dir_inode#1 > file_inode > alloc
//
// with the journal handle opened only after every inode lock is held
// (handle holders must never block on an inode lock, or they would
// deadlock against the journal's commit gate). The alloc lock is a
// leaf taken around bitmap scans while a handle is open.
var (
	renameClass = kbase.NewLockClass("extlike.rename")
	dirClass    = kbase.NewLockClass("extlike.dir_inode")
	fileClass   = kbase.NewLockClass("extlike.file_inode")
	allocClass  = kbase.NewLockClass("extlike.alloc")
)

// fsInstance is one mounted extlike file system.
type fsInstance struct {
	fs    *FS
	cache *bufcache.Cache
	jnl   *journal.Journal
	geo   Geometry
	vsb   *vfs.SuperBlock

	// renameMu serializes every operation that must hold more than
	// one directory-inode lock (rename, rmdir). With at most one
	// dir lock per task outside renameMu, no cycle can form at the
	// dir level — the same job s_vfs_rename_mutex does in Linux.
	renameMu *kbase.KMutex
	// allocMu guards both allocation bitmaps (scan-and-set and
	// free-bit counting).
	allocMu *kbase.KMutex

	imu    sync.Mutex // guards inodes (the icache table) only
	inodes map[uint64]*vfs.Inode
}

// Mount implements vfs.FileSystemType. data must wrap a *MountData —
// checked with the legacy any-downcast, oopsing on confusion.
func (f *FS) Mount(task *kbase.Task, data vfs.MountData) (*vfs.SuperBlock, kbase.Errno) {
	md, ok := vfs.MountDataAs[*MountData](data)
	if !ok || md.Dev == nil {
		kbase.Oops(kbase.OopsTypeConfusion, "extlike", "mount data is not *extlike.MountData")
		return nil, kbase.EINVAL
	}
	cache := bufcache.NewCache(md.Dev, md.CacheSize)
	// Superblock.
	sbBuf := make([]byte, md.Dev.BlockSize())
	if err := md.Dev.Read(0, sbBuf); err != kbase.EOK {
		return nil, err
	}
	var geo Geometry
	if err := geo.SB.decode(sbBuf); err != kbase.EOK {
		return nil, err
	}
	if geo.SB.TotalBlocks != md.Dev.Blocks() || geo.SB.BlockSize != uint32(md.Dev.BlockSize()) {
		return nil, kbase.EUCLEAN
	}
	inst := &fsInstance{
		fs:       f,
		cache:    cache,
		geo:      geo,
		renameMu: kbase.NewKMutex(renameClass),
		allocMu:  kbase.NewKMutex(allocClass),
		inodes:   make(map[uint64]*vfs.Inode),
	}
	inst.jnl = journal.New(cache, geo.SB.JournalStart, geo.SB.JournalLen)
	// Crash recovery on every mount; clean mounts replay nothing.
	if _, err := inst.jnl.Recover(); err != kbase.EOK {
		return nil, err
	}
	vsb := &vfs.SuperBlock{FSType: f.Name(), Ops: inst}
	vfs.SetSBPrivate(vsb, inst)
	inst.vsb = vsb
	root, err := inst.iget(task, geo.SB.RootIno)
	if err != kbase.EOK {
		return nil, err
	}
	vsb.Root = root
	return vsb, kbase.EOK
}

// Journal returns the instance journal (for tests and tooling).
func (inst *fsInstance) Journal() *journal.Journal { return inst.jnl }

// Cache returns the buffer cache (for tests and tooling).
func (inst *fsInstance) Cache() *bufcache.Cache { return inst.cache }

// InstanceOf extracts the fsInstance from a mounted superblock; it is
// exported for white-box tests and the fault injector.
func InstanceOf(sb *vfs.SuperBlock) (interface {
	Journal() *journal.Journal
	Cache() *bufcache.Cache
}, bool) {
	inst, ok := vfs.SBPrivateAs[*fsInstance](sb)
	return inst, ok
}

// begin opens a journal handle, or a no-op handle when SkipJournal is
// injected.
func (inst *fsInstance) begin() *journal.Handle {
	return inst.jnl.Begin()
}

// commit force-commits the running transaction, checkpointing and
// retrying once if the journal is full. The task carries the caller's
// trace into the journal's latency plane.
func (inst *fsInstance) commit(task *kbase.Task) kbase.Errno {
	if inst.fs.SkipJournal {
		// Injected bug: pretend durability without the journal.
		return kbase.EOK
	}
	err := inst.jnl.CommitCtx(task)
	if err == kbase.ENOSPC {
		if err := inst.jnl.CheckpointCtx(task); err != kbase.EOK {
			return err
		}
		err = inst.jnl.CommitCtx(task)
	}
	return err
}

// inodeOps implements vfs.TypedInodeOps: extlike is a converted file
// system, so Lookup/Create/Mkdir return typedapi.Result and no errno
// ever travels inside an inode pointer. VFS dispatches to it directly;
// no legacy adapter sits in between.
type inodeOps struct {
	inst *fsInstance
}

func (o *inodeOps) LookupTyped(task *kbase.Task, dir *vfs.Inode, name string) typedapi.Result[*vfs.Inode] {
	inst := o.inst
	ei, err := einodeOf(dir)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	ents, err := inst.readDir(task, ei)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	i := dirFind(ents, name)
	if i < 0 {
		return typedapi.Err[*vfs.Inode](kbase.ENOENT)
	}
	child, err := inst.iget(task, ents[i].Ino)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	return typedapi.Ok(child)
}

func (o *inodeOps) CreateTyped(task *kbase.Task, dir *vfs.Inode, name string, mode vfs.FileMode) typedapi.Result[*vfs.Inode] {
	if len(name) == 0 || len(name) > vfs.MaxNameLen {
		return typedapi.Err[*vfs.Inode](kbase.EINVAL)
	}
	inst := o.inst
	ei, err := einodeOf(dir)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	ents, err := inst.readDir(task, ei)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	if dirFind(ents, name) >= 0 {
		return typedapi.Err[*vfs.Inode](kbase.EEXIST)
	}
	h := inst.begin()
	defer h.Stop()
	ino, err := inst.allocIno(task, h)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	diskMode, nlink := modeRegDisk, uint16(1)
	if mode.IsDir() {
		diskMode, nlink = modeDirDisk, 2
	}
	di := diskInode{Mode: diskMode, Nlink: nlink}
	if err := inst.writeDiskInode(task, h, ino, &di); err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	ents = append(ents, dirent{Ino: ino, Mode: diskMode, Name: name})
	if err := inst.writeDir(task, h, dir, ei, ents); err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	h.Stop()
	if err := inst.commit(task); err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	child, err := inst.iget(task, ino)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	return typedapi.Ok(child)
}

func (o *inodeOps) MkdirTyped(task *kbase.Task, dir *vfs.Inode, name string) typedapi.Result[*vfs.Inode] {
	return o.CreateTyped(task, dir, name, vfs.ModeDir)
}

func (o *inodeOps) Unlink(task *kbase.Task, dir *vfs.Inode, name string) kbase.Errno {
	return o.inst.removeEntry(task, dir, name, false)
}

func (o *inodeOps) Rmdir(task *kbase.Task, dir *vfs.Inode, name string) kbase.Errno {
	// Rmdir locks two directory inodes (parent then child), so it
	// must serialize against other multi-dir lockers.
	inst := o.inst
	inst.renameMu.Lock(task)
	defer inst.renameMu.Unlock(task)
	return inst.removeEntry(task, dir, name, true)
}

// removeEntry implements unlink and rmdir. For wantDir the caller
// holds renameMu (two dir locks are about to be taken).
func (inst *fsInstance) removeEntry(task *kbase.Task, dir *vfs.Inode, name string, wantDir bool) kbase.Errno {
	ei, err := einodeOf(dir)
	if err != kbase.EOK {
		return err
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	ents, err := inst.readDir(task, ei)
	if err != kbase.EOK {
		return err
	}
	i := dirFind(ents, name)
	if i < 0 {
		return kbase.ENOENT
	}
	target := ents[i]
	isDir := target.Mode == modeDirDisk
	if wantDir && !isDir {
		return kbase.ENOTDIR
	}
	if !wantDir && isDir {
		return kbase.EISDIR
	}
	childVi, err := inst.iget(task, target.Ino)
	if err != kbase.EOK {
		return err
	}
	cei, err := einodeOf(childVi)
	if err != kbase.EOK {
		return err
	}
	if isDir {
		// Child directory nests under the parent's class.
		cei.lock.LockNested(task, 1)
	} else {
		cei.lock.Lock(task)
	}
	defer cei.lock.Unlock(task)
	if wantDir {
		sub, err := inst.readDir(task, cei)
		if err != kbase.EOK {
			return err
		}
		if len(sub) > 0 {
			return kbase.ENOTEMPTY
		}
	}

	h := inst.begin()
	defer h.Stop()
	ents = append(ents[:i], ents[i+1:]...)
	if err := inst.writeDir(task, h, dir, ei, ents); err != kbase.EOK {
		return err
	}
	if isDir {
		cei.di.Nlink = 0
	} else {
		cei.di.Nlink--
	}
	childVi.ILock.Lock(task)
	childVi.Nlink = uint32(cei.di.Nlink)
	childVi.ILock.Unlock(task)
	if cei.di.Nlink == 0 {
		err = inst.dropInode(task, h, target.Ino, cei, childVi)
	} else {
		err = inst.writeDiskInode(task, h, target.Ino, &cei.di)
	}
	if err != kbase.EOK {
		return err
	}
	h.Stop()
	return inst.commit(task)
}

// dropInode retires an inode whose last link is gone: it writes the
// nlink-0 inode, drops the icache entry and frees the blocks and the
// inode number. The number is released last, because from then on a
// concurrent create in another directory may allocate and write it.
// An inode still open is orphaned instead: POSIX lets live descriptors
// keep reading and writing until the last close, so Release reclaims
// its storage.
func (inst *fsInstance) dropInode(task *kbase.Task, h *journal.Handle, ino uint64, ei *einode, vi *vfs.Inode) kbase.Errno {
	reclaim := vi.OpenCount() == 0
	if !reclaim {
		ei.orphan = true
	} else if !inst.fs.LeakOnUnlink { // else: injected leak, blocks stay allocated forever
		if err := inst.freeAllBlocks(task, h, ei); err != kbase.EOK {
			return err
		}
	}
	if err := inst.writeDiskInode(task, h, ino, &ei.di); err != kbase.EOK {
		return err
	}
	inst.imu.Lock()
	delete(inst.inodes, ino)
	inst.imu.Unlock()
	if !reclaim {
		return kbase.EOK
	}
	return inst.freeIno(task, h, ino)
}

func (o *inodeOps) Rename(task *kbase.Task, oldDir *vfs.Inode, oldName string, newDir *vfs.Inode, newName string) kbase.Errno {
	if len(newName) == 0 || len(newName) > vfs.MaxNameLen {
		return kbase.EINVAL
	}
	inst := o.inst
	// All renames serialize on renameMu: they may hold two dir
	// locks at once, and no topological order between arbitrary
	// directories exists without it.
	inst.renameMu.Lock(task)
	defer inst.renameMu.Unlock(task)
	oei, err := einodeOf(oldDir)
	if err != kbase.EOK {
		return err
	}
	nei, err := einodeOf(newDir)
	if err != kbase.EOK {
		return err
	}
	sameDir := oei == nei
	oei.lock.Lock(task)
	defer oei.lock.Unlock(task)
	if !sameDir {
		nei.lock.LockNested(task, 1)
		defer nei.lock.Unlock(task)
	}
	oldEnts, err := inst.readDir(task, oei)
	if err != kbase.EOK {
		return err
	}
	oi := dirFind(oldEnts, oldName)
	if oi < 0 {
		return kbase.ENOENT
	}
	moving := oldEnts[oi]

	newEnts := oldEnts
	if !sameDir {
		newEnts, err = inst.readDir(task, nei)
		if err != kbase.EOK {
			return err
		}
	}

	// Resolve and lock a replaced target BEFORE opening the journal
	// handle: handle holders must never block on an inode lock.
	var xei *einode
	var exVi *vfs.Inode
	ni := dirFind(newEnts, newName)
	if ni >= 0 {
		existing := newEnts[ni]
		if existing.Ino == moving.Ino {
			// POSIX: oldpath and newpath name the same file (self-
			// rename or two links to one inode) — rename does nothing
			// and reports success. Without this the replace path below
			// would free the very inode being moved.
			return kbase.EOK
		}
		// POSIX rename(2) kind rules: a directory may not replace a
		// non-directory (ENOTDIR), a non-directory may not replace a
		// directory (EISDIR), and a directory target must be empty
		// (ENOTEMPTY below). The old code fell through to the file
		// replace path and silently clobbered a file with a
		// directory — fuzzer-found.
		movingDir := moving.Mode == modeDirDisk
		existingDir := existing.Mode == modeDirDisk
		if movingDir && !existingDir {
			return kbase.ENOTDIR
		}
		if !movingDir && existingDir {
			return kbase.EISDIR
		}
		if exVi, err = inst.iget(task, existing.Ino); err != kbase.EOK {
			return err
		}
		if xei, err = einodeOf(exVi); err != kbase.EOK {
			return err
		}
		if existingDir {
			// Up to two dir locks are already held; renameMu makes
			// the extra subclass safe.
			xei.lock.LockNested(task, 2)
		} else {
			xei.lock.Lock(task)
		}
		defer xei.lock.Unlock(task)
		if existingDir {
			sub, err := inst.readDir(task, xei)
			if err != kbase.EOK {
				return err
			}
			if len(sub) > 0 {
				return kbase.ENOTEMPTY
			}
		}
	}

	h := inst.begin()
	defer h.Stop()

	if ni >= 0 {
		// Replace: drop the target like unlink (or rmdir, for an
		// empty directory target) does.
		existing := newEnts[ni]
		if existing.Mode == modeDirDisk {
			xei.di.Nlink = 0
		} else {
			xei.di.Nlink--
		}
		if xei.di.Nlink == 0 {
			err = inst.dropInode(task, h, existing.Ino, xei, exVi)
		} else {
			err = inst.writeDiskInode(task, h, existing.Ino, &xei.di)
		}
		if err != kbase.EOK {
			return err
		}
		newEnts = append(newEnts[:ni], newEnts[ni+1:]...)
		if sameDir {
			// Removing an entry shifts indices; refind the source.
			oi = dirFind(newEnts, oldName)
		}
	}

	if sameDir {
		newEnts[oi].Name = newName
		if err := inst.writeDir(task, h, oldDir, oei, newEnts); err != kbase.EOK {
			return err
		}
	} else {
		oldEnts = append(oldEnts[:oi], oldEnts[oi+1:]...)
		newEnts = append(newEnts, dirent{Ino: moving.Ino, Mode: moving.Mode, Name: newName})
		if err := inst.writeDir(task, h, oldDir, oei, oldEnts); err != kbase.EOK {
			return err
		}
		if err := inst.writeDir(task, h, newDir, nei, newEnts); err != kbase.EOK {
			return err
		}
	}
	h.Stop()
	return inst.commit(task)
}

func (o *inodeOps) ReadDir(task *kbase.Task, dir *vfs.Inode) ([]vfs.DirEntry, kbase.Errno) {
	inst := o.inst
	ei, err := einodeOf(dir)
	if err != kbase.EOK {
		return nil, err
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	ents, err := inst.readDir(task, ei)
	if err != kbase.EOK {
		return nil, err
	}
	out := make([]vfs.DirEntry, 0, len(ents))
	for _, e := range ents {
		mode := vfs.ModeRegular
		if e.Mode == modeDirDisk {
			mode = vfs.ModeDir
		}
		out = append(out, vfs.DirEntry{Name: e.Name, Ino: e.Ino, Mode: mode})
	}
	return out, kbase.EOK
}

// writeToken carries state from WriteBegin to WriteEnd through the
// VFS's WriteState ferry.
type writeToken struct {
	ei *einode
	h  *journal.Handle
}

// confusedToken is the wrong-type twin for the injected fault.
type confusedToken struct {
	ei *einode
	h  *journal.Handle
}

// fileOps implements vfs.FileOps.
type fileOps struct {
	inst *fsInstance
}

func (fo *fileOps) Read(task *kbase.Task, ino *vfs.Inode, buf []byte, off int64) (int, kbase.Errno) {
	inst := fo.inst
	ei, err := einodeOf(ino)
	if err != kbase.EOK {
		return 0, err
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	return inst.readFileRange(task, ei, buf, off)
}

func (fo *fileOps) WriteBegin(task *kbase.Task, ino *vfs.Inode, off int64, n int) (vfs.WriteState, kbase.Errno) {
	inst := fo.inst
	ei, err := einodeOf(ino)
	if err != kbase.EOK {
		return vfs.WriteState{}, err
	}
	ei.lock.Lock(task) // released in WriteEnd — the legacy protocol spans calls
	h := inst.begin()
	if inst.fs.ConfuseWriteEnd {
		return vfs.NewWriteState(&confusedToken{ei: ei, h: h}), kbase.EOK
	}
	return vfs.NewWriteState(&writeToken{ei: ei, h: h}), kbase.EOK
}

func (fo *fileOps) WriteCopy(task *kbase.Task, ino *vfs.Inode, off int64, data []byte, private vfs.WriteState) (int, kbase.Errno) {
	tok, ok := vfs.WriteStateAs[*writeToken](private)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "extlike",
			"write_copy private is not *writeToken")
		fo.abortWrite(task, ino, private)
		return 0, kbase.EUCLEAN
	}
	n, err := fo.inst.writeFileRange(task, tok.h, tok.ei, data, off)
	if err != kbase.EOK {
		tok.h.Stop()
		tok.ei.lock.Unlock(task)
	}
	return n, err
}

func (fo *fileOps) WriteEnd(task *kbase.Task, ino *vfs.Inode, off int64, n int, private vfs.WriteState) kbase.Errno {
	tok, ok := vfs.WriteStateAs[*writeToken](private)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "extlike",
			"write_end private is not *writeToken")
		fo.abortWrite(task, ino, private)
		return kbase.EUCLEAN
	}
	inst := fo.inst
	end := off + int64(n)
	if end > int64(tok.ei.di.Size) {
		tok.ei.di.Size = uint64(end)
		if inst.fs.SkipSizeLock {
			ino.ISize = end // unlocked store — the §4.3 pathology
		} else {
			ino.SizeWrite(task, end)
		}
	}
	err := inst.writeDiskInode(task, tok.h, tok.ei.ino, &tok.ei.di)
	tok.h.Stop()
	if err == kbase.EOK {
		err = inst.commit(task)
	} else {
		inst.commit(task)
	}
	tok.ei.lock.Unlock(task)
	return err
}

// abortWrite cleans up when the token was type-confused: we can still
// salvage the handle if the confused value carries one, and the inode
// lock is recovered from the inode itself since the token is useless.
func (fo *fileOps) abortWrite(task *kbase.Task, ino *vfs.Inode, private vfs.WriteState) {
	if ct, ok := vfs.WriteStateAs[*confusedToken](private); ok {
		ct.h.Stop()
	}
	fo.inst.commit(task)
	if ei, err := einodeOf(ino); err == kbase.EOK {
		ei.lock.Unlock(task)
	}
}

func (fo *fileOps) Truncate(task *kbase.Task, ino *vfs.Inode, size int64) kbase.Errno {
	inst := fo.inst
	ei, err := einodeOf(ino)
	if err != kbase.EOK {
		return err
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	h := inst.begin()
	defer h.Stop()
	if size < int64(ei.di.Size) {
		if err := inst.truncateBlocks(task, h, ei, size); err != kbase.EOK {
			return err
		}
	}
	ei.di.Size = uint64(size)
	if err := inst.writeDiskInode(task, h, ei.ino, &ei.di); err != kbase.EOK {
		return err
	}
	ino.SizeWrite(task, size)
	h.Stop()
	return inst.commit(task)
}

func (fo *fileOps) Fsync(task *kbase.Task, ino *vfs.Inode) kbase.Errno {
	inst := fo.inst
	ei, err := einodeOf(ino)
	if err != kbase.EOK {
		return err
	}
	// Hold the inode lock so an in-flight write to this file has
	// fully landed before we commit and write back.
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	if err := inst.commit(task); err != kbase.EOK {
		return err
	}
	// Data writeback: make file data durable too.
	return inst.cache.SyncDirtyCtx(task)
}

// Release implements vfs.ReleaseOps: the last descriptor on the
// inode closed. If unlink (or a replacing rename) orphaned it, the
// deferred reclaim runs now — blocks and the ino number go back to
// the bitmaps under a journal handle, exactly the free path unlink
// would have taken.
func (fo *fileOps) Release(task *kbase.Task, ino *vfs.Inode) {
	inst := fo.inst
	ei, err := einodeOf(ino)
	if err != kbase.EOK {
		return
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	if !ei.orphan {
		return
	}
	ei.orphan = false
	h := inst.begin()
	defer h.Stop()
	if !inst.fs.LeakOnUnlink {
		if err := inst.freeAllBlocks(task, h, ei); err != kbase.EOK {
			return
		}
	}
	if err := inst.writeDiskInode(task, h, ei.ino, &ei.di); err != kbase.EOK {
		return
	}
	// The number goes back last: see dropInode.
	if err := inst.freeIno(task, h, ei.ino); err != kbase.EOK {
		return
	}
	h.Stop()
	_ = inst.commit(task)
}

// SuperBlockOps.

func (inst *fsInstance) Statfs(task *kbase.Task) (vfs.StatFS, kbase.Errno) {
	inst.allocMu.Lock(task)
	defer inst.allocMu.Unlock(task)
	freeB, err := inst.countFreeBits(inst.geo.SB.BBMStart, inst.geo.SB.BBMBlocks, inst.geo.SB.TotalBlocks)
	if err != kbase.EOK {
		return vfs.StatFS{}, err
	}
	freeI, err := inst.countFreeBits(inst.geo.SB.IBMStart, inst.geo.SB.IBMBlocks, uint64(inst.geo.SB.InodeCount))
	if err != kbase.EOK {
		return vfs.StatFS{}, err
	}
	return vfs.StatFS{
		TotalBlocks: inst.geo.SB.TotalBlocks,
		FreeBlocks:  freeB,
		TotalInodes: uint64(inst.geo.SB.InodeCount),
		FreeInodes:  freeI,
		FSName:      "extlike",
	}, kbase.EOK
}

func (inst *fsInstance) SyncFS(task *kbase.Task) kbase.Errno {
	// No instance-wide lock: the journal's commit gate quiesces
	// metadata, and SyncDirty snapshots the dirty set on its own.
	if err := inst.commit(task); err != kbase.EOK {
		return err
	}
	if inst.fs.SkipJournal {
		return inst.cache.SyncDirtyCtx(task)
	}
	return inst.jnl.CheckpointCtx(task)
}

func (inst *fsInstance) Unmount(task *kbase.Task) kbase.Errno {
	return inst.SyncFS(nil)
}

package main

import (
	"fmt"
	"sync"
	"time"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/pkg/safelinux"
)

// kv workload shape.
const (
	kvKeys       = 16384  // 4x the 4096-entry dcache, so lookups miss
	kvDirs       = 64     // keys spread across directories
	kvDiskBlocks = 131072 // 64 MiB at 512 B blocks, on both stacks
	kvReadPct    = 80     // the rest are durable overwrites
)

// unavailableDev says why the block-device counters are absent on the
// safe stack, in the report and in BENCHMARK.json.
const unavailableDev = "after UpgradeFS, Kernel.RegisterMetrics still exports the retired extlike device as blockdev and never the safefs device"

// store is a populated key space on one kernel plus the benchmark's
// record of what each key must hold.
type store struct {
	k     *safelinux.Kernel
	seed  uint64
	paths []string
	// Per key: a lock that makes each request atomic with respect to
	// the other client (as a key-value server would), the last
	// acknowledged version, and the version of a failed write that may
	// or may not have landed (0 when none).
	locks   []sync.Mutex
	acked   []uint64
	pending []uint64
}

// populate creates keys values of version 1 spread across dirs
// directories and syncs them to the device.
func populate(k *safelinux.Kernel, seed uint64, keys, dirs int) (*store, error) {
	st := &store{
		k: k, seed: seed, paths: make([]string, keys),
		locks: make([]sync.Mutex, keys), acked: make([]uint64, keys), pending: make([]uint64, keys),
	}
	for d := 0; d < dirs; d++ {
		if err := k.VFS.Mkdir(k.Task, fmt.Sprintf("/d%02d", d)); err != kbase.EOK {
			return nil, fmt.Errorf("mkdir: %v", err)
		}
	}
	val := make([]byte, valueSize)
	for i := range st.paths {
		st.paths[i] = fmt.Sprintf("/d%02d/k%05d", i%dirs, i)
		fillValue(val, seed, i, 1)
		fd, err := k.VFS.Open(k.Task, st.paths[i], vfs.OWrOnly|vfs.OCreate)
		if err != kbase.EOK {
			return nil, fmt.Errorf("create %s: %v", st.paths[i], err)
		}
		if n, err := k.VFS.Pwrite(k.Task, fd, val, 0); err != kbase.EOK || n != valueSize {
			return nil, fmt.Errorf("write %s: %d, %v", st.paths[i], n, err)
		}
		if err := k.VFS.CloseAs(k.Task, fd); err != kbase.EOK {
			return nil, fmt.Errorf("close %s: %v", st.paths[i], err)
		}
		st.acked[i] = 1
	}
	if err := k.VFS.SyncAll(k.Task); err != kbase.EOK {
		return nil, fmt.Errorf("syncall: %v", err)
	}
	return st, nil
}

// upgrade moves the kernel onto the safe modules the workload names.
func upgrade(k *safelinux.Kernel, fs, tcp bool) error {
	if fs {
		t := opUpgradeFS.Begin(k.Task)
		err := k.UpgradeFS()
		t.End()
		if err != kbase.EOK {
			return fmt.Errorf("UpgradeFS: %v", err)
		}
	}
	if tcp {
		t := opUpgradeTCP.Begin(k.Task)
		err := k.UpgradeTCP()
		t.End()
		if err != kbase.EOK {
			return fmt.Errorf("UpgradeTCP: %v", err)
		}
	}
	return nil
}

// spaceBytesPerLiveByte is the file system's used space (Statfs, at
// the 512 B block size) over the bytes of live values.
func (st *store) spaceBytesPerLiveByte() (float64, error) {
	sf, err := st.k.VFS.Statfs(st.k.Task, "/")
	if err != kbase.EOK {
		return 0, fmt.Errorf("statfs: %v", err)
	}
	return float64((sf.TotalBlocks-sf.FreeBlocks)*512) / float64(len(st.paths)*valueSize), nil
}

// read fetches key through open, pread and close and checks it
// against the last acknowledged write (or a failed write that may
// have landed). Caller holds the key's lock.
func (st *store) read(task *kbase.Task, key int, buf, scratch []byte, errs *errorLog) kbase.Errno {
	vf := st.k.VFS
	t := opOpen.Begin(task)
	fd, err := vf.Open(task, st.paths[key], vfs.ORdOnly)
	t.End()
	if err != kbase.EOK {
		return err
	}
	t = opPread.Begin(task)
	n, err := vf.Pread(task, fd, buf, 0)
	t.End()
	t = opClose.Begin(task)
	cerr := vf.CloseAs(task, fd)
	t.End()
	if err == kbase.EOK {
		err = cerr
	}
	if err != kbase.EOK {
		return err
	}
	st.check(key, buf[:n], scratch, errs)
	return kbase.EOK
}

// check verifies a value read back for key. Caller holds the key's
// lock.
func (st *store) check(key int, got, scratch []byte, errs *errorLog) {
	msg := checkValue(got, scratch, st.seed, key, st.acked[key])
	if msg == "" {
		return
	}
	if p := st.pending[key]; p != 0 && checkValue(got, scratch, st.seed, key, p) == "" {
		st.acked[key], st.pending[key] = p, 0 // the failed write did land
		return
	}
	errs.add("%s", msg)
}

// write durably overwrites key with its next version: open, pwrite,
// fsync, close. Caller holds the key's lock.
func (st *store) write(task *kbase.Task, key int, val []byte, errs *errorLog) kbase.Errno {
	vf := st.k.VFS
	v := max(st.acked[key], st.pending[key]) + 1
	fillValue(val, st.seed, key, v)
	t := opOpen.Begin(task)
	fd, err := vf.Open(task, st.paths[key], vfs.OWrOnly)
	t.End()
	if err != kbase.EOK {
		return err
	}
	st.pending[key] = v
	t = opPwrite.Begin(task)
	n, err := vf.Pwrite(task, fd, val, 0)
	t.End()
	if err == kbase.EOK && n != len(val) {
		errs.add("key %d: pwrite wrote %d of %d bytes without an error", key, n, len(val))
	}
	if err == kbase.EOK {
		t = opFsync.Begin(task)
		err = vf.Fsync(task, fd)
		t.End()
	}
	t = opClose.Begin(task)
	cerr := vf.CloseAs(task, fd)
	t.End()
	if err == kbase.EOK {
		err = cerr
	}
	if err == kbase.EOK {
		st.acked[key], st.pending[key] = v, 0
	}
	return err
}

// sweep reads every key once and checks it.
func (st *store) sweep(errs *errorLog) {
	buf, scratch := make([]byte, valueSize), make([]byte, valueSize)
	for key := range st.paths {
		st.locks[key].Lock()
		if err := st.read(st.k.Task, key, buf, scratch, errs); err != kbase.EOK {
			errs.add("sweep: key %d unreadable: %v", key, err)
		}
		st.locks[key].Unlock()
	}
}

// kvClient is one closed-loop client with its own kernel task.
type kvClient struct {
	task          *kbase.Task
	rng           *rng
	buf, scratch  []byte
	val           []byte
	samples       []sample
	errs          errorLog
	errnos        errnoCounts
	reads, writes int64
	userBytes     int64 // bytes of acknowledged writes
	busy          time.Duration
	t0            time.Time // phase start
}

// kvLoad is the kv workload: the key space and its clients.
type kvLoad struct {
	st   *store
	cs   []*kvClient
	rate float64 // ops/s in the warm-up, which sizes the sample buffers
}

func newKVLoad(st *store, seed uint64) *kvLoad {
	l := &kvLoad{st: st, cs: make([]*kvClient, clients)}
	for i := range l.cs {
		l.cs[i] = &kvClient{
			task: kbase.NewTask(), rng: newRng(seed, uint64(i)),
			buf: make([]byte, valueSize), scratch: make([]byte, valueSize), val: make([]byte, valueSize),
		}
	}
	return l
}

func (l *kvLoad) store() *store { return l.st }

// warmup is the untimed lead-in before the measured phase: a tenth of
// it, at most 1 s.
func (l *kvLoad) warmup(seconds float64) {
	ph := l.phase(time.Duration(min(1.0, seconds/10) * float64(time.Second)))
	l.rate = float64(ph.attempted) / ph.wall.Seconds()
}

func (l *kvLoad) reserve(d time.Duration) {
	for _, c := range l.cs {
		c.samples = make([]sample, 0, sampleCap(l.rate/clients, d))
	}
}

func (l *kvLoad) clientErrors(errs *errorLog) {
	for _, c := range l.cs {
		errs.merge(&c.errs)
	}
}

// op runs one request: pick a key, then read it or durably overwrite
// it. The latency includes the wait for the key's lock, as a client of
// a key-value server would see it.
func (st *store) op(c *kvClient) {
	root := opRequest.Begin(c.task)
	key := c.rng.intn(len(st.paths))
	write := c.rng.intn(100) >= kvReadPct
	start := time.Now()
	st.locks[key].Lock()
	var err kbase.Errno
	if write {
		err = st.write(c.task, key, c.val, &c.errs)
	} else {
		err = st.read(c.task, key, c.buf, c.scratch, &c.errs)
	}
	st.locks[key].Unlock()
	end := time.Now()
	root.End()
	lat := end.Sub(start).Nanoseconds()
	kind := uint8(kindRead)
	if write {
		kind = kindWrite
		c.writes++
	} else {
		c.reads++
	}
	if err != kbase.EOK {
		c.errnos[err]++
		lat = failedLat
	} else if write {
		c.userBytes += valueSize
	}
	c.samples = append(c.samples, sample{at: end.Sub(c.t0).Nanoseconds(), lat: lat, kind: kind})
}

// phase runs every client closed-loop for d. The sample buffers keep
// the capacity reserve gave them.
func (l *kvLoad) phase(d time.Duration) phaseStats {
	start := time.Now()
	for _, c := range l.cs {
		c.samples = c.samples[:0]
		c.errnos = errnoCounts{}
		c.reads, c.writes, c.userBytes, c.busy = 0, 0, 0, 0
		c.t0 = start
	}
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range l.cs {
		wg.Add(1)
		go func(c *kvClient) {
			defer wg.Done()
			t0 := time.Now()
			for time.Now().Before(deadline) {
				l.st.op(c)
			}
			c.busy = time.Since(t0)
		}(c)
	}
	wg.Wait()
	ph := phaseStats{wall: time.Since(start), errnos: errnoCounts{}}
	for _, c := range l.cs {
		ph.samples = append(ph.samples, c.samples)
		ph.attempted += int64(len(c.samples))
		ph.reads += c.reads
		ph.writes += c.writes
		ph.userBytes += c.userBytes
		ph.busy += c.busy
		for e, n := range c.errnos {
			ph.errnos[e] += n
			ph.failed += n
		}
	}
	return ph
}

package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/pkg/safelinux"
)

const (
	valueSize = 1024 // bytes per key's value, on both workload families
	clients   = 2    // closed-loop clients (kv) or connections (rpc)
)

// rng is splitmix64: small, fast, and fully determined by its seed.
type rng struct{ s uint64 }

func newRng(seed, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ (stream+1)*0xBF58476D1CE4E5B9}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fillValue writes the value stamped (key, version) into dst: the
// stamp in the first 16 bytes, then bytes derived from the seed and
// the stamp, so any wrong byte anywhere in a value is detectable.
func fillValue(dst []byte, seed uint64, key int, version uint64) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(key))
	binary.LittleEndian.PutUint64(dst[8:], version)
	g := newRng(seed^uint64(key)<<20, version)
	for i := 16; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], g.next())
	}
}

// checkValue compares got with the value stamped (key, version) and
// describes the first difference ("" when they match).
func checkValue(got, scratch []byte, seed uint64, key int, version uint64) string {
	fillValue(scratch, seed, key, version)
	if bytes.Equal(got, scratch) {
		return ""
	}
	if len(got) != len(scratch) {
		return fmt.Sprintf("key %d: read %d bytes, want %d (version %d)", key, len(got), len(scratch), version)
	}
	i := 0
	for got[i] == scratch[i] {
		i++
	}
	return fmt.Sprintf("key %d: byte %d is %#x, want %#x (stamp in value: key %d version %d; want version %d)",
		key, i, got[i], scratch[i],
		binary.LittleEndian.Uint64(got[0:]), binary.LittleEndian.Uint64(got[8:]), version)
}

// Operation kinds in the latency samples.
const (
	kindRead  = 0
	kindWrite = 1
)

// failedLat is the latency a failed operation records: it counts past
// every latency limit.
const failedLat = math.MaxInt64

// sample is one timed operation.
type sample struct {
	at   int64 // completion, nanoseconds since the phase began
	lat  int64 // nanoseconds, failedLat for a failed op
	kind uint8
}

// sampleCap is how many samples a buffer holds for a phase of d at
// rate ops/s, with headroom, so that recording them never grows the
// buffer (and allocates) inside the measured phase.
func sampleCap(rate float64, d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int(2*rate*d.Seconds()) + 4096
}

// errorLog collects correctness errors, keeping the first few.
type errorLog struct {
	n     int
	first []string
}

func (e *errorLog) add(format string, args ...any) {
	e.n++
	if len(e.first) < 8 {
		e.first = append(e.first, fmt.Sprintf(format, args...))
	}
}

func (e *errorLog) merge(o *errorLog) {
	for _, s := range o.first {
		if len(e.first) < 8 {
			e.first = append(e.first, s)
		}
	}
	e.n += o.n
}

func (e *errorLog) list() []string {
	out := append([]string(nil), e.first...)
	if e.n > len(e.first) {
		out = append(out, fmt.Sprintf("... and %d more", e.n-len(e.first)))
	}
	return out
}

// quantile returns the nearest-rank q-quantile of sorted (not
// empty), in microseconds (+Inf when it falls on a failed op).
func quantile(sorted []int64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	if sorted[i] == failedLat {
		return math.Inf(1)
	}
	return float64(sorted[i]) / 1e3
}

// latencies returns the sorted latencies of the samples of the given
// kind (kind < 0: all kinds).
func latencies(kind int, parts ...[]sample) []int64 {
	var out []int64
	for _, samples := range parts {
		for _, s := range samples {
			if kind < 0 || int(s.kind) == kind {
				out = append(out, s.lat)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// window is the length of the time windows a measured phase is cut
// into. Throughput and latency quantiles are computed per window and
// the median window is reported, so a burst of interference from
// outside the benchmark moves a few windows, not the result.
const window = time.Second

// split buckets samples by the window they completed in.
func split(parts [][]sample, wall time.Duration) [][]sample {
	n := max(1, int(wall/window))
	out := make([][]sample, n)
	for _, samples := range parts {
		for _, s := range samples {
			i := min(int(s.at*int64(n)/wall.Nanoseconds()), n-1)
			out[i] = append(out[i], s)
		}
	}
	return out
}

// median returns the median of vs (sorted in place).
func median(vs []float64) float64 {
	sort.Float64s(vs)
	if len(vs)%2 == 1 {
		return vs[len(vs)/2]
	}
	return (vs[len(vs)/2-1] + vs[len(vs)/2]) / 2
}

// timing records the phase's throughput and latency quantiles: all
// ops, and reads and writes separately when byKind is set. Each is the
// median over the phase's windows; p999 comes from the whole phase
// and is printed only, as it varies up to 2x between runs.
func timing(res *result, ph phaseStats, byKind bool) {
	ws := split(ph.samples, ph.wall)
	var completed int64
	tput := make([]float64, 0, len(ws))
	for _, w := range ws {
		var ok int64
		for _, s := range w {
			if s.lat != failedLat {
				ok++
			}
		}
		completed += ok
		tput = append(tput, float64(ok)/(ph.wall.Seconds()/float64(len(ws))))
	}
	res.set("ops_per_s", median(tput), completed, fmt.Sprintf("median of %d windows", len(ws)))
	class := func(prefix string, kind int) {
		all := latencies(kind, ph.samples...)
		n := int64(len(all))
		for _, q := range []struct {
			name string
			q    float64
		}{{"_p50_us", 0.50}, {"_p90_us", 0.90}, {"_p99_us", 0.99}} {
			var vs []float64
			for _, w := range ws {
				if lat := latencies(kind, w); len(lat) > 0 {
					vs = append(vs, quantile(lat, q.q))
				}
			}
			if len(vs) == 0 {
				res.na(prefix+q.name, "no samples")
				continue
			}
			res.set(prefix+q.name, median(vs), n, fmt.Sprintf("median of %d windows", len(vs)))
		}
		if n >= 10000 {
			res.set(prefix+"_p999_us", quantile(all, 0.999), n, "whole phase; printed only, varies up to 2x between runs")
		}
	}
	class("op", -1)
	if byKind {
		class("read", kindRead)
		class("write", kindWrite)
	}
}

// medianSeconds returns the median of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2].Seconds()
	}
	return (s[len(s)/2-1] + s[len(s)/2]).Seconds() / 2
}

// cost measures what a phase costs the process: Go heap allocation,
// GC cycles and pause time, and CPU time (user and system, every
// thread: clients, kernel workers and the Go runtime).
type cost struct {
	alloc   uint64
	gcs     uint32
	pauseNs uint64
	cpu     time.Duration
}

func measureCost() cost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return cost{
		alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs,
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// since returns the cost accrued since c was measured.
func (c cost) since() cost {
	now := measureCost()
	return cost{alloc: now.alloc - c.alloc, gcs: now.gcs - c.gcs, pauseNs: now.pauseNs - c.pauseNs, cpu: now.cpu - c.cpu}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// kernelHealth turns the kernel's own safety records into correctness
// errors: every recorded oops and ownership violation is one.
func kernelHealth(k *safelinux.Kernel, errs *errorLog) {
	if k.Recorder != nil {
		for _, ev := range k.Recorder.Events() {
			errs.add("kernel oops: %v", ev)
		}
	}
	if n := k.Checker.Count(); n > 0 {
		errs.add("ownership checker recorded %d violations", n)
	}
}

// errnoCounts tallies failed operations by errno.
type errnoCounts map[kbase.Errno]int64

func (c errnoCounts) String() string {
	if len(c) == 0 {
		return "none"
	}
	var parts []string
	for e, n := range c {
		parts = append(parts, fmt.Sprintf("%v=%d", e, n))
	}
	sort.Strings(parts)
	return fmt.Sprint(parts)
}

// phaseStats is what one measured phase of a workload's closed loop
// produced.
type phaseStats struct {
	samples           [][]sample // one buffer per client (kv) or runner (rpc)
	wall              time.Duration
	busy              time.Duration // summed over the clients: the op time's base
	attempted, failed int64
	reads, writes     int64 // kv reads and writes, or rpc server preads
	userBytes         int64 // bytes of acknowledged writes
	errnos            errnoCounts
	proto             protoCounts // rpc: over the phase's first protoPrefix requests
}

// load is a set-up workload: a populated kernel and the clients that
// drive it.
type load interface {
	store() *store
	// warmup runs the untimed lead-in and measures the rate that sizes
	// the sample buffers.
	warmup(seconds float64)
	// reserve sizes the sample buffers for phases of d; 0 releases them.
	reserve(d time.Duration)
	phase(d time.Duration) phaseStats
	// clientErrors collects the correctness errors every phase found.
	clientErrors(errs *errorLog)
}

// bootConfig is the kernel configuration every workload shares.
func bootConfig(seed uint64) safelinux.Config {
	return safelinux.Config{Seed: seed, Compartments: true, CaptureOops: true}
}

// newLoad boots a kernel, populates the key space, upgrades it as the
// workload names and builds the clients (on rpc: opens the server's
// listener). It is what setup_s times.
func newLoad(o options, w workload) (load, error) {
	cfg := bootConfig(o.seed)
	keys, dirs := rpcKeys, rpcDirs
	if !w.rpc {
		cfg.DiskBlocks, cfg.AsyncIO = kvDiskBlocks, true
		keys, dirs = kvKeys, kvDirs
	}
	k, err := safelinux.New(cfg)
	if err != kbase.EOK {
		return nil, fmt.Errorf("boot: %v", err)
	}
	st, perr := populate(k, o.seed, keys, dirs)
	if perr == nil {
		perr = upgrade(k, w.safeFS, w.safeTCP)
	}
	if perr != nil {
		k.Close()
		return nil, perr
	}
	if !w.rpc {
		return newKVLoad(st, o.seed), nil
	}
	tr, perr := listen(k)
	if perr != nil {
		k.Close()
		return nil, perr
	}
	return newRPCRunner(st, tr, o.seed), nil
}

// setUp sets the workload up and keeps the last load. An untraced run
// sets up several times, closing and collecting each earlier kernel
// first, so setup_s can be a median. A traced run sets up once with
// the tracer on, so UpgradeFS and UpgradeTCP are attributed by layer;
// traceLine summarizes that.
func setUp(o options, w workload) (l load, times []time.Duration, traceLine string, err error) {
	n := w.setups
	if o.setups > 0 {
		n = o.setups
	}
	if o.trace {
		n = 1
		tr := startTracer("setup", layerFor(fsName(w.safeFS)))
		defer func() {
			tr.finish()
			traceLine = tr.setupLine()
		}()
	}
	for i := 0; i < n; i++ {
		if l != nil {
			l.store().k.Close()
			l = nil
		}
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		if l, err = newLoad(o, w); err != nil {
			return nil, nil, "", err
		}
		times = append(times, time.Since(start))
	}
	return l, times, "", nil
}

// runWorkload sets a workload up, warms it up, runs the untraced or
// the traced measurement, and checks every value the kernel holds.
func runWorkload(o options) (*result, error) {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	l, setupTimes, setupLine, err := setUp(o, w)
	if err != nil {
		return nil, err
	}
	st := l.store()
	defer st.k.Close()
	m := ktrace.NewMetrics()
	st.k.RegisterMetrics(m)

	l.warmup(o.seconds)
	res := newResult(w.name, o.trace)
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		traced(w, l, m, d, res)
		res.report = append([]string{setupLine}, res.report...)
	} else {
		untraced(w, l, m, d, setupTimes, res)
	}

	var errs errorLog
	l.clientErrors(&errs)
	st.sweep(&errs)
	kernelHealth(st.k, &errs)
	if !o.trace {
		space, err := st.spaceBytesPerLiveByte()
		if err != nil {
			return nil, err
		}
		res.set("space_bytes_per_live_byte", space, int64(len(st.paths)), "")
		l.reserve(0) // the sample buffers are the benchmark's, not the kernel's
		res.set("live_heap_mb", liveHeapMB(), 1, "after a forced GC")
	}
	res.errors = errs.list()
	res.correct = errs.n == 0
	return res, nil
}

// untraced is the measured phase of a timed run and the end-to-end
// metrics it gives.
func untraced(w workload, l load, m *ktrace.Metrics, d time.Duration, setupTimes []time.Duration, res *result) {
	l.reserve(d)
	before := snapshot(m)
	c0 := measureCost()
	ph := l.phase(d)
	spent := c0.since()
	after := snapshot(m)

	n := ph.attempted
	res.attempted, res.failed = n, ph.failed
	timing(res, ph, !w.rpc)
	res.set("fail_ratio", float64(ph.failed)/float64(n), n, "failed ops by errno: "+ph.errnos.String())
	res.set("setup_s", medianSeconds(setupTimes), int64(len(setupTimes)), fmt.Sprintf("median of %d set-ups", len(setupTimes)))
	res.set("alloc_bytes_per_op", float64(spent.alloc)/float64(n), n, "")
	res.set("cpu_us_per_op", float64(spent.cpu.Nanoseconds())/float64(n)/1e3, n, "process CPU time, every thread")
	switch {
	case w.rpc:
		p := ph.proto
		res.set("sim_jiffies_per_req", float64(p.jiffies)/float64(p.reqs), p.reqs,
			fmt.Sprintf("over the first %d requests of the phase: repeats exactly for a seed", protoPrefix))
	case w.safeFS:
		res.na("dev_bytes_per_user_byte", unavailableDev)
	default:
		res.set("dev_bytes_per_user_byte", delta(before, after, "blockdev.writes")*512/float64(ph.userBytes), ph.writes, "")
	}
}

// traced is the traced run: a traced phase, then an untraced one of
// the same length for the overhead ratio and the Go runtime counts.
// The traced phase comes first so that on rpc its protocol prefix
// starts from the same simulator state as an untraced run's.
func traced(w workload, l load, m *ktrace.Metrics, d time.Duration, res *result) {
	k := l.store().k
	half := d / 2
	if eng := k.IOEngine(); eng != nil {
		eng.SQEHist().Reset()
	}
	l.reserve(half)
	r := &layerRun{before: snapshot(m)}
	tr := startTracer("client", layerFor(fsName(w.safeFS)))
	r.traced = l.phase(half)
	tr.finish()
	r.after = snapshot(m)
	r.tr = tr
	r.opUs = float64(r.traced.busy.Nanoseconds()) / float64(r.traced.attempted) / 1e3
	r.rows, r.unattributed, res.report = tr.selfTable(w.name, r.traced.attempted, r.opUs*1e3, rowOrder(w), rowNotes(w))

	c0 := measureCost()
	r.untraced = l.phase(half)
	r.spent = c0.since()
	res.attempted = r.traced.attempted + r.untraced.attempted
	res.failed = r.traced.failed + r.untraced.failed
	layerMetrics(res, w, k, r)
}

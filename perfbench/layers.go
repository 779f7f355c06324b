package main

import (
	"strings"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/pkg/safelinux"
)

// counters is a flat snapshot of everything the program exports as a
// counter: the metrics registry ("<subsystem>.<name>", tracepoint hits
// as "ktrace.<tracepoint>.hits") plus lockstat wait totals
// ("lock.<class>.wait_ns").
type counters map[string]float64

func snapshot(m *ktrace.Metrics) counters {
	c := counters{}
	for _, x := range m.Gather() {
		if x.Kind == ktrace.KindCounter {
			c[x.Subsystem+"."+x.Name] = float64(x.Value)
		}
	}
	for _, s := range kbase.LockStats() {
		c["lock."+s.Class+".wait_ns"] = float64(s.WaitNs)
	}
	return c
}

// delta returns after-before for one counter.
func delta(before, after counters, name string) float64 { return after[name] - before[name] }

// sumDelta sums the deltas of every counter with the given prefix and
// suffix (e.g. all compartments' .entered).
func sumDelta(before, after counters, prefix, suffix string) float64 {
	var s float64
	for name, v := range after {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			s += v - before[name]
		}
	}
	return s
}

// protoCounts are the rpc workload's protocol counters, taken over a
// fixed prefix of requests so they repeat exactly for a seed.
type protoCounts struct {
	reqs        int64
	jiffies     uint64
	steps       int64
	packets     uint64
	dropped     uint64
	retransmits uint64 // legacy stack (net:retransmit hits)
	safeRetx    uint64 // safetcp:retransmit hits
	segments    uint64 // safetcp segments handled, both endpoints
}

func (p protoCounts) sub(o protoCounts) protoCounts {
	return protoCounts{
		reqs: p.reqs - o.reqs, jiffies: p.jiffies - o.jiffies, steps: p.steps - o.steps,
		packets: p.packets - o.packets, dropped: p.dropped - o.dropped,
		retransmits: p.retransmits - o.retransmits, safeRetx: p.safeRetx - o.safeRetx,
		segments: p.segments - o.segments,
	}
}

// layerSpecs are the per-layer metrics, in report order, all
// declared in BENCHMARK.json. Each traced run reports all of them; one
// a workload cannot measure is reported as unavailable (-1 in the JSON
// line) with the reason in the report.
var layerSpecs = []spec{
	{"client.self_us_per_op", "us/op", true},
	{"vfs.self_us_per_op", "us/op", true},
	{"vfs.open_us_p50", "us", true},
	{"vfs.pread_us_p50", "us", true},
	{"vfs.close_us_p50", "us", true},
	{"vfs.pwrite_us_p50", "us", true},
	{"vfs.fsync_us_p50", "us", true},
	{"vfs.dcache_hit_ratio", "ratio", true},
	{"extlike.self_us_per_op", "us/op", true},
	{"lock.extlike.dir_inode.wait_ns_per_op", "ns/op", true},
	{"lock.extlike.file_inode.wait_ns_per_op", "ns/op", true},
	{"lock.extlike.alloc.wait_ns_per_op", "ns/op", true},
	{"journal.self_us_per_op", "us/op", true},
	{"journal.commits_per_write", "1/write", true},
	{"journal.blocks_logged_per_write", "1/write", true},
	{"journal.commit_us_p50", "us", true},
	{"journal.checkpoints", "count", true},
	{"bufcache.self_us_per_op", "us/op", true},
	{"bufcache.hit_ratio", "ratio", true},
	{"bufcache.evictions", "count", true},
	{"bufcache.writeback_per_write", "1/write", true},
	{"bufcache.fill_us_p50", "us", true},
	{"bufcache.sync_us_p50", "us", true},
	{"kio.self_us_per_op", "us/op", true},
	{"kio.sqe_us_p50", "us", true},
	{"kio.sqe_us_p99", "us", true},
	{"kio.batch_us_p50", "us", true},
	{"kio.sqes_per_batch", "1/batch", true},
	{"kio.merged_ratio", "ratio", true},
	{"kio.copies_per_write", "1/write", true},
	{"kio.cq_overflows", "count", true},
	{"blockdev.writes_per_write", "1/write", true},
	{"blockdev.flushes_per_write", "1/write", true},
	{"blockdev.reads_per_read", "1/read", true},
	{"safefs.self_us_per_op", "us/op", true},
	{"lock.safefs.fslock.wait_ns_per_op", "ns/op", true},
	{"spec.checks_per_op", "1/op", true},
	{"net.self_us_per_op", "us/op", true},
	{"net.step_us_p50", "us", true},
	{"net.steps_per_req", "1/req", true},
	{"net.packets_per_req", "1/req", true},
	{"net.dropped_per_req", "1/req", true},
	{"net.retransmits_per_req", "1/req", true},
	{"net.send_us_p50", "us", true},
	{"net.recv_us_p50", "us", true},
	{"net.timers_end", "count", true},
	{"net.conns_end", "count", true},
	{"safetcp.segments_per_req", "1/req", true},
	{"safetcp.retransmits_per_req", "1/req", true},
	{"safetcp.tx_errors", "count", true},
	{"safetcp.accept_drops", "count", true},
	{"safetcp.armed_timers_end", "count", true},
	{"compartment.self_us_per_op", "us/op", true},
	{"compartment.fs_us_p50", "us", true},
	{"compartment.net_us_p50", "us", true},
	{"compartment.entered_per_op", "1/op", true},
	{"compartment.rejected", "count", true},
	{"own.moves_per_op", "1/op", true},
	{"own.borrows_per_op", "1/op", true},
	{"own.live_cells_end", "count", true},
	{"own.violations", "count", true},
	{"go.gc_cycles_per_kop", "1/kop", true},
	{"go.gc_pause_us_per_kop", "us/kop", true},
	{"trace.overhead_ratio", "ratio", true},
	{"trace.op_us", "us/op", true},
	{"trace.dropped_events", "count", true},
	{"attrib.unattributed_ratio", "ratio", true},
}

// layerOf names the layer a per-layer metric belongs to.
func layerOf(metric string) string {
	l, _, _ := strings.Cut(strings.TrimPrefix(metric, "lock."), ".")
	switch l {
	case "spec":
		return "safefs"
	case "attrib":
		return "trace"
	}
	return l
}

// layerRun is what one traced run hands the per-layer report.
type layerRun struct {
	traced, untraced phaseStats
	spent            cost // of the untraced half
	before, after    counters
	tr               *tracer
	rows             map[string]float64
	unattributed     float64
	opUs             float64
}

// absentLayers says, for each layer that is not in the workload's
// stack, why.
func absentLayers(w workload, k *safelinux.Kernel) map[string]string {
	absent := map[string]string{}
	if w.safeFS {
		for _, l := range []string{"extlike", "journal", "bufcache", "kio"} {
			absent[l] = "the root file system is safefs: extlike, journal, bufcache and kio are not in this stack"
		}
		absent["blockdev"] = unavailableDev
	} else {
		absent["safefs"] = "the root file system is extlike: safefs is not in this stack"
		if k.IOEngine() == nil {
			absent["kio"] = "kernel booted without AsyncIO: no kio engine"
		}
	}
	switch {
	case !w.rpc:
		absent["net"] = "kv workloads send no network traffic"
		absent["safetcp"] = absent["net"]
	case !w.safeTCP:
		absent["safetcp"] = "the transport is the legacy TCP stack: safetcp is not in this stack"
	}
	return absent
}

// layerMetrics records every declared per-layer metric for one traced
// run. Reasons for unavailability are spelled out, so an absent value
// never reads as a zero.
func layerMetrics(res *result, w workload, k *safelinux.Kernel, r *layerRun) {
	ph := r.traced
	d := func(name string) float64 { return delta(r.before, r.after, name) }
	// ratio records num/den, or unavailable when den is zero.
	ratio := func(name string, num, den float64, n int64, noBase string) {
		if den == 0 {
			res.na(name, noBase)
			return
		}
		res.set(name, num/den, n, "")
	}
	quant := func(name, op string, q float64) {
		v, n := spanQuantileUs(op, q)
		if n == 0 {
			res.na(name, "no "+op+" spans in the traced phase")
			return
		}
		res.set(name, v, n, "")
	}
	self := func(layer string) {
		res.set(layer+".self_us_per_op", r.rows[layer], r.tr.complete, "")
	}
	ops := float64(ph.attempted)
	perOp := func(name string, v float64) { res.set(name, v/ops, ph.attempted, "") }
	count := func(name string, v float64) { res.set(name, v, ph.attempted, "") }
	w8 := float64(ph.writes)
	const noWrites = "no writes in this workload"
	absent := absentLayers(w, k)
	in := func(layer string) bool { return absent[layer] == "" }

	self("client")

	self("vfs")
	quant("vfs.open_us_p50", opOpen.Name(), 0.5)
	quant("vfs.pread_us_p50", opPread.Name(), 0.5)
	quant("vfs.close_us_p50", opClose.Name(), 0.5)
	quant("vfs.pwrite_us_p50", opPwrite.Name(), 0.5)
	quant("vfs.fsync_us_p50", opFsync.Name(), 0.5)
	hits, misses := d("vfs.dcache_hits"), d("vfs.dcache_misses")
	ratio("vfs.dcache_hit_ratio", hits, hits+misses, int64(hits+misses), "no dcache lookups")

	if in("extlike") {
		self("extlike")
		for _, c := range []string{"dir_inode", "file_inode", "alloc"} {
			perOp("lock.extlike."+c+".wait_ns_per_op", d("lock.extlike."+c+".wait_ns"))
		}
	}
	if in("journal") {
		self("journal")
		ratio("journal.commits_per_write", d("journal.commits"), w8, ph.writes, noWrites)
		ratio("journal.blocks_logged_per_write", d("journal.blocks_logged"), w8, ph.writes, noWrites)
		quant("journal.commit_us_p50", "journal:commit", 0.5)
		count("journal.checkpoints", d("journal.checkpoints"))
	}
	if in("bufcache") {
		self("bufcache")
		bh, bm := d("bufcache.hits"), d("bufcache.misses")
		ratio("bufcache.hit_ratio", bh, bh+bm, int64(bh+bm), "no buffer-cache lookups")
		count("bufcache.evictions", d("bufcache.evictions"))
		ratio("bufcache.writeback_per_write", d("bufcache.writeback"), w8, ph.writes, noWrites)
		quant("bufcache.fill_us_p50", "bufcache:fill", 0.5)
		quant("bufcache.sync_us_p50", "bufcache:sync", 0.5)
	}
	if in("kio") {
		self("kio")
		if s := k.IOEngine().SQEHist().Snapshot(); s.Count > 0 {
			res.set("kio.sqe_us_p50", float64(s.Quantile(0.5))/1e3, int64(s.Count), "")
			res.set("kio.sqe_us_p99", float64(s.Quantile(0.99))/1e3, int64(s.Count), "")
		} else {
			res.na("kio.sqe_us_p50", "no SQEs completed in the traced phase")
			res.na("kio.sqe_us_p99", "no SQEs completed in the traced phase")
		}
		quant("kio.batch_us_p50", "kio:batch", 0.5)
		sub := d("kio.submitted")
		ratio("kio.sqes_per_batch", sub, d("kio.batches"), int64(d("kio.batches")), "no kio batches")
		ratio("kio.merged_ratio", d("kio.merged"), sub, int64(sub), "no SQEs submitted")
		ratio("kio.copies_per_write", d("kio.copies_performed"), w8, ph.writes, noWrites)
		count("kio.cq_overflows", d("kio.cq_overflows"))
	}
	if in("blockdev") {
		ratio("blockdev.writes_per_write", d("blockdev.writes"), w8, ph.writes, noWrites)
		ratio("blockdev.flushes_per_write", d("blockdev.flushes"), w8, ph.writes, noWrites)
		ratio("blockdev.reads_per_read", d("blockdev.reads"), float64(ph.reads), ph.reads, "no reads")
	}
	if in("safefs") {
		self("safefs")
		perOp("lock.safefs.fslock.wait_ns_per_op", d("lock.safefs.fslock.wait_ns"))
		perOp("spec.checks_per_op", d("ktrace.spec:check.hits"))
	}

	if in("net") {
		p := ph.proto
		n := float64(p.reqs)
		perReq := func(name string, v uint64) { res.set(name, float64(v)/n, p.reqs, "") }
		self("net")
		quant("net.step_us_p50", opStep.Name(), 0.5)
		perReq("net.steps_per_req", uint64(p.steps))
		perReq("net.packets_per_req", p.packets)
		perReq("net.dropped_per_req", p.dropped)
		if w.safeTCP {
			res.na("net.retransmits_per_req", "the transport is safetcp: see safetcp.retransmits_per_req")
		} else {
			perReq("net.retransmits_per_req", p.retransmits)
		}
		quant("net.send_us_p50", opSend.Name(), 0.5)
		quant("net.recv_us_p50", opRecv.Name(), 0.5)
		hostA, hostB := k.Hosts()
		timers, conns := hostA.TimerCount()+hostB.TimerCount(), hostA.ConnCount()+hostB.ConnCount()
		if in("safetcp") {
			epA, epB := k.SafeEndpoints()
			perReq("safetcp.segments_per_req", p.segments)
			perReq("safetcp.retransmits_per_req", p.safeRetx)
			count("safetcp.tx_errors", d("safetcp.tx_errors"))
			count("safetcp.accept_drops", d("safetcp.accept_drops"))
			res.set("safetcp.armed_timers_end", float64(epA.TimerCount()+epB.TimerCount()), 1, "")
			conns = epA.ConnCount() + epB.ConnCount()
		}
		res.set("net.timers_end", float64(timers), 1, "")
		res.set("net.conns_end", float64(conns), 1, "")
	}

	self("compartment")
	quant("compartment.fs_us_p50", "compartment:fs", 0.5)
	quant("compartment.net_us_p50", "compartment:net", 0.5)
	perOp("compartment.entered_per_op", sumDelta(r.before, r.after, "compartment_", ".entered"))
	count("compartment.rejected", sumDelta(r.before, r.after, "compartment_", ".rejected"))

	perOp("own.moves_per_op", d("ktrace.own:move.hits"))
	perOp("own.borrows_per_op", d("ktrace.own:borrow.hits"))
	res.set("own.live_cells_end", float64(k.Checker.LiveCount()), 1, "")
	res.set("own.violations", float64(k.Checker.Count()), 1, "")

	// Go runtime, from the untraced half (the tracer allocates).
	u := r.untraced
	kops := float64(u.attempted) / 1e3
	res.set("go.gc_cycles_per_kop", float64(r.spent.gcs)/kops, u.attempted, "")
	res.set("go.gc_pause_us_per_kop", float64(r.spent.pauseNs)/1e3/kops, u.attempted, "")

	// The traced run itself.
	opsPerS := func(p phaseStats) float64 { return float64(p.attempted-p.failed) / p.wall.Seconds() }
	count("trace.overhead_ratio", opsPerS(u)/opsPerS(ph))
	count("trace.op_us", r.opUs)
	res.set("trace.dropped_events", float64(r.tr.dropped), 1, "")
	count("attrib.unattributed_ratio", r.unattributed/r.opUs)

	for _, s := range layerSpecs {
		if _, ok := res.metrics[s.name]; !ok {
			res.na(s.name, absent[layerOf(s.name)])
		}
	}
}

// rowOrder lists the self-time table's rows: the client, net on rpc,
// vfs, then the file-system stack in call order, then compartment.
func rowOrder(w workload) []string {
	rows := []string{"client"}
	if w.rpc {
		rows = append(rows, "net")
	}
	rows = append(rows, "vfs")
	if w.safeFS {
		return append(rows, "safefs", "compartment")
	}
	return append(rows, "extlike", "journal", "bufcache", "kio", "compartment")
}

// rowNotes explains the self-time table's rows that are not one
// module's own spans.
func rowNotes(w workload) map[string]string {
	fs := fsName(w.safeFS)
	net := "Sim.Step and socket calls: the legacy TCP stack"
	if w.safeTCP {
		net = "Sim.Step and conn calls: the net data plane and safetcp"
	}
	return map[string]string{
		"client": "benchmark code between calls, and the trace roots",
		"net":    net,
		fs:       "fs compartment span: path walk, dcache and " + fs + " under the gate",
		// The fs gate's span is charged to the file system it wraps,
		// and the other gates are entered with no task, so their time
		// stays inside the calling layer's row.
		"compartment": "gates other than fs; the net and buf gates run without a task, inside the net and bufcache rows",
	}
}

package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"safelinux/internal/linuxlike/ktrace"
)

// The benchmark's own spans. Each wraps one call into a public layer
// function, so the program's spans inside that call (vfs:*,
// compartment:*, journal:*, bufcache:*, kio:*) become its children on
// the calling task. With the latency plane off (untraced runs) Begin
// is one atomic load and End a no-op.
var (
	opRequest = ktrace.NewOp("perfbench:request") // kv: one request, the trace root
	opLoop    = ktrace.NewOp("perfbench:loop")    // rpc: one runner iteration, the trace root

	opOpen   = ktrace.NewOp("perfbench:vfs.open")
	opPread  = ktrace.NewOp("perfbench:vfs.pread")
	opPwrite = ktrace.NewOp("perfbench:vfs.pwrite")
	opFsync  = ktrace.NewOp("perfbench:vfs.fsync")
	opClose  = ktrace.NewOp("perfbench:vfs.close")

	opStep    = ktrace.NewOp("perfbench:net.step")
	opConnect = ktrace.NewOp("perfbench:net.connect")
	opAccept  = ktrace.NewOp("perfbench:net.accept")
	opSend    = ktrace.NewOp("perfbench:net.send")
	opRecv    = ktrace.NewOp("perfbench:net.recv")
	opConnEnd = ktrace.NewOp("perfbench:net.close")

	opUpgradeFS  = ktrace.NewOp("perfbench:setup.upgrade_fs")
	opUpgradeTCP = ktrace.NewOp("perfbench:setup.upgrade_tcp")
)

// countedTracepoints are switched on in the traced phase so their hit
// counts can be read; spans need only span:begin/end.
var countedTracepoints = []string{"own:move", "own:borrow", "spec:check", "net:retransmit", "safetcp:retransmit"}

// ringPerShard sizes the trace ring for the traced phase (16 shards,
// 48 B a slot: 24 MiB), so the consumer rarely falls a lap behind.
const ringPerShard = 1 << 15

// tracer switches the program's latency plane on, streams span events
// out of the trace ring while it runs, and folds each finished trace
// into per-layer self time: a span's self time is its duration minus
// the durations of its children. Only traces whose root span belongs
// to the root layer count ("client" for a measured phase, "setup" for
// a set-up); spans the program roots itself (calls with no task, e.g.
// socket sends) lie inside some benchmark span's time and are not
// counted twice.
type tracer struct {
	root    string
	layerOf func(op string) string
	cons    *ktrace.Consumer
	done    chan struct{}
	stop    chan struct{}

	beginID, endID uint32
	open           map[uint64]*openTrace
	opLayer        map[uint32]string

	selfNs   map[string]int64
	spans    map[string]int64
	complete int64 // benchmark traces folded in
	broken   int64 // benchmark traces with lost events (time goes unattributed)
	rootNs   int64 // summed durations of the complete traces
	dropped  uint64
}

type frame struct {
	span    uint64
	op      uint32
	childNs int64
}

type openTrace struct {
	stack  []frame
	self   map[string]int64
	nspans map[string]int64
	broken bool
}

// startTracer turns on histograms, spans at sample shift 0, tracepoint
// counting and lockstat, and starts draining the ring. layerOf maps an
// op name to the layer its self time is charged to.
func startTracer(root string, layerOf func(op string) string) *tracer {
	for _, op := range ktrace.Ops() {
		op.Hist().Reset()
	}
	t := &tracer{
		root:    root,
		layerOf: layerOf,
		done:    make(chan struct{}),
		stop:    make(chan struct{}),
		beginID: ktrace.Lookup("span:begin").ID(),
		endID:   ktrace.Lookup("span:end").ID(),
		open:    map[uint64]*openTrace{},
		opLayer: map[uint32]string{},
		selfNs:  map[string]int64{},
		spans:   map[string]int64{},
	}
	t.cons = ktrace.ResizeBuffer(ringPerShard).NewConsumer()
	ktrace.SetSampleShift(0)
	for _, name := range countedTracepoints {
		if tp := ktrace.Lookup(name); tp != nil {
			tp.Enable()
		}
	}
	ktrace.EnableLockStat()
	ktrace.SetHistograms(true)
	ktrace.SetSpans(true)
	go t.drain()
	return t
}

// finish switches the plane off, drains what is left and stops.
func (t *tracer) finish() {
	ktrace.SetSpans(false)
	ktrace.SetHistograms(false)
	ktrace.DisableLockStat()
	for _, name := range countedTracepoints {
		if tp := ktrace.Lookup(name); tp != nil {
			tp.Disable()
		}
	}
	ktrace.SetSampleShift(ktrace.DefaultSampleShift)
	close(t.stop)
	<-t.done
	t.dropped = t.cons.Dropped()
	for _, ot := range t.open {
		if !ot.broken {
			t.broken++ // never saw its root end
		}
	}
	t.open = nil
}

func (t *tracer) drain() {
	defer close(t.done)
	for {
		evs := t.cons.Poll(4096)
		for i := range evs {
			t.event(&evs[i])
		}
		if len(evs) > 0 {
			continue
		}
		select {
		case <-t.stop:
			for evs := t.cons.Poll(0); len(evs) > 0; evs = t.cons.Poll(0) {
				for i := range evs {
					t.event(&evs[i])
				}
			}
			return
		case <-time.After(50 * time.Microsecond):
		}
	}
}

func (t *tracer) layer(op uint32) string {
	if l, ok := t.opLayer[op]; ok {
		return l
	}
	name := "?"
	if o := ktrace.OpByID(op); o != nil {
		name = o.Name()
	}
	l := t.layerOf(name)
	t.opLayer[op] = l
	return l
}

// event folds one ring event. A trace's spans are strictly nested on
// one task, so a stack per trace reconstructs the tree; any mismatch
// means the ring dropped events and the trace is marked broken.
func (t *tracer) event(ev *ktrace.Event) {
	switch ev.TPID {
	case t.beginID:
		trace, span, parent, op := ev.A0, ev.A1, ev.A2, uint32(ev.A3)
		ot := t.open[trace]
		if ot == nil {
			if span != trace {
				return // a child of a trace that began before the consumer
			}
			ot = &openTrace{self: map[string]int64{}, nspans: map[string]int64{}}
			t.open[trace] = ot
		}
		if ot.broken {
			return
		}
		if top := len(ot.stack); (top == 0 && parent != 0) || (top > 0 && ot.stack[top-1].span != parent) {
			ot.broken = true
			return
		}
		ot.stack = append(ot.stack, frame{span: span, op: op})
	case t.endID:
		trace, span, dur, op := ev.A0, ev.A1, int64(ev.A2), uint32(ev.A3)
		ot := t.open[trace]
		if ot == nil {
			return
		}
		if !ot.broken {
			top := len(ot.stack) - 1
			if top < 0 || ot.stack[top].span != span {
				ot.broken = true
			} else {
				f := ot.stack[top]
				ot.stack = ot.stack[:top]
				l := t.layer(f.op)
				ot.self[l] += dur - f.childNs
				ot.nspans[l]++
				if top > 0 {
					ot.stack[top-1].childNs += dur
				}
			}
		}
		if span != trace {
			return
		}
		delete(t.open, trace)
		if t.layer(op) != t.root {
			return // a trace the program rooted itself
		}
		if ot.broken {
			t.broken++
			return
		}
		t.complete++
		t.rootNs += dur
		for l, ns := range ot.self {
			t.selfNs[l] += ns
		}
		for l, n := range ot.nspans {
			t.spans[l] += n
		}
	}
}

// selfTable renders the per-layer self-time table. opNs is the traced
// op time: the clients' busy wall time in the traced phase divided by
// the ops they attempted. Rows are µs per op; unattributed is what the
// complete traces do not cover (loop overhead between requests, and
// every request of a trace that lost events), so the rows sum to opNs.
func (t *tracer) selfTable(workload string, ops int64, opNs float64, order []string, notes map[string]string) (rows map[string]float64, unattributed float64, lines []string) {
	rows = map[string]float64{}
	var sum float64
	for l, ns := range t.selfNs {
		rows[l] = float64(ns) / float64(ops) / 1e3
		sum += rows[l]
	}
	unattributed = opNs/1e3 - sum
	seen := map[string]bool{}
	names := append([]string(nil), order...)
	for _, l := range sortedKeys(rows) {
		if !slices.Contains(order, l) {
			names = append(names, l)
		}
	}
	lines = append(lines, fmt.Sprintf("  self time per op, %s (traced: %d ops, %d complete traces, %d lost to dropped ring events, %d events dropped):",
		workload, ops, t.complete, t.broken, t.dropped))
	lines = append(lines, fmt.Sprintf("    %-14s %12s %8s %12s", "layer", "us/op", "share", "spans/op"))
	row := func(name string, us float64, spans int64, note string) {
		share := 0.0
		if opNs > 0 {
			share = us * 1e3 / opNs * 100
		}
		l := fmt.Sprintf("    %-14s %12.3f %7.1f%% %12.2f", name, us, share, float64(spans)/float64(ops))
		if note != "" {
			l += "  " + note
		}
		lines = append(lines, l)
	}
	for _, l := range names {
		if seen[l] {
			continue
		}
		seen[l] = true
		row(l, rows[l], t.spans[l], notes[l])
	}
	row("unattributed", unattributed, 0, "loop overhead between requests and traces that lost events")
	lines = append(lines, fmt.Sprintf("    %-14s %12.3f %7.1f%%", "total", opNs/1e3, 100.0))
	return rows, unattributed, lines
}

// setupLine summarizes a traced set-up: how long its module upgrades
// took and their self time by layer, largest first.
func (t *tracer) setupLine() string {
	if t.complete == 0 {
		return "  set-up, traced: no module upgrade in this workload"
	}
	layers := sortedKeys(t.selfNs)
	sort.SliceStable(layers, func(i, j int) bool { return t.selfNs[layers[i]] > t.selfNs[layers[j]] })
	parts := make([]string, len(layers))
	for i, l := range layers {
		parts[i] = fmt.Sprintf("%s %.1f", l, float64(t.selfNs[l])/1e6)
	}
	return fmt.Sprintf("  set-up, traced: UpgradeFS/UpgradeTCP took %.1f ms; self ms by layer: %s",
		float64(t.rootNs)/1e6, strings.Join(parts, ", "))
}

// layerFor charges an op to a layer named after the repo's modules.
// fsLayer names the root file system (extlike or safefs): its
// compartment span wraps the whole file-system call under the gate,
// path walk and dcache included, and no program span splits it
// further. Sim.Step and the socket calls are charged to net on both
// transports: a step runs the data plane and the installed protocol
// together.
func layerFor(fsLayer string) func(op string) string {
	return func(op string) string {
		switch {
		case op == opRequest.Name() || op == opLoop.Name():
			return "client"
		case strings.HasPrefix(op, "perfbench:vfs.") || strings.HasPrefix(op, "vfs:"):
			return "vfs"
		case strings.HasPrefix(op, "perfbench:net.") || strings.HasPrefix(op, "net:"):
			return "net"
		case op == "compartment:fs":
			return fsLayer
		case strings.HasPrefix(op, "compartment:"):
			return "compartment"
		case strings.HasPrefix(op, "perfbench:setup."):
			return "setup"
		}
		if i := strings.IndexByte(op, ':'); i > 0 {
			return op[:i]
		}
		return op
	}
}

// spanQuantileUs returns the q-quantile of an op's latency histogram
// in µs and its sample count; histograms only fill while the traced
// phase runs.
func spanQuantileUs(op string, q float64) (float64, int64) {
	o := ktrace.OpByName(op)
	if o == nil {
		return 0, 0
	}
	s := o.Hist().Snapshot()
	return float64(s.Quantile(q)) / 1e3, int64(s.Count)
}

// fsName names the root file system's module.
func fsName(safe bool) string {
	if safe {
		return "safefs"
	}
	return "extlike"
}

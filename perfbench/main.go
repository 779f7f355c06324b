// Command perfbench is the kernel's end-to-end request benchmark. It
// drives pkg/safelinux.Kernel through its public API with closed-loop
// clients and reports what a user of the kernel would see (throughput,
// latency quantiles, set-up time, memory) and, in a separate traced
// run, where each request's time goes, layer by layer.
//
// Four workloads, a key-value and a request-response one, each on the
// legacy and on the safe module stack:
//
//	kv-legacy   16 Ki keys x 1 KiB files on extlike + journal + bufcache
//	            + kio, 80% reads (open, pread, close) and 20% durable
//	            overwrites (open, pwrite, fsync, close) from 2 clients
//	kv-safe     the same inputs and device after UpgradeFS (safefs)
//	rpc-legacy  2 connections from host A to host B on the legacy TCP
//	            stack; each request sends a 64 B key, the server preads
//	            the 1 KiB value through the VFS and sends it back
//	rpc-safe    the same after UpgradeFS and UpgradeTCP (safetcp)
//
// Usage:
//
//	perfbench --workload kv-legacy --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seed 1 --seconds 5 --trace 1
//
// Every value read back and every rpc response is checked against the
// last acknowledged write; a wrong byte, an ownership violation or a
// kernel oops makes the command exit non-zero. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The human-readable report above it names every metric
// with its unit and sample count. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"safelinux/internal/linuxlike/kbase"
)

// workload is one named workload's shape.
type workload struct {
	name    string
	rpc     bool // request-response over the network; else key-value
	safeFS  bool // after UpgradeFS
	safeTCP bool // after UpgradeTCP
	// setups is how many times an untraced run sets up, setup_s being
	// the median. An rpc set-up takes about 15 ms, a kv one about 3 s.
	setups int
}

// workloads are run by --workload all in this order.
var workloads = []workload{
	{name: "kv-legacy", setups: 3},
	{name: "kv-safe", safeFS: true, setups: 3},
	{name: "rpc-legacy", rpc: true, setups: 150},
	{name: "rpc-safe", rpc: true, safeFS: true, safeTCP: true, setups: 150},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options is one invocation's settings; everything the kernel sees is
// derived from seed.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int // set-ups per untraced run; 0 means the workload's own count
}

// result is one workload run's outcome, in the shape the last output
// line carries.
type result struct {
	workload  string
	traced    bool
	correct   bool
	errors    []string // correctness errors (wrong bytes, oopses, violations)
	attempted int64
	failed    int64
	metrics   map[string]metric
	report    []string // extra human-readable lines (tables)
}

// metric is one measurement. Samples is how many observations the
// value is computed from; NA marks a metric the workload cannot
// measure, with the reason in Note.
type metric struct {
	Value   float64
	Samples int64
	NA      bool
	Note    string
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, metrics: map[string]metric{}}
}

// set records a measured metric; its unit comes from the metric table.
func (r *result) set(name string, v float64, samples int64, note string) {
	unit(name)
	r.metrics[name] = metric{Value: v, Samples: samples, Note: note}
}

// na records a metric the workload cannot measure, and why.
func (r *result) na(name, why string) {
	unit(name)
	r.metrics[name] = metric{NA: true, Note: why}
}

// spec is one metric the benchmark can report. Declared metrics are
// the ones BENCHMARK.json lists, in the same order; the others are
// printed in the report only.
type spec struct {
	name, unit string
	declared   bool
}

// e2eSpecs are the end-to-end metrics, in report order. The declared
// ones are measured, and never zero, on every gated workload. The
// others exist on only some workloads or read zero on most
// (read/write split, fail_ratio, dev_bytes_per_user_byte,
// sim_jiffies_per_req), or spread too much to gate: op_p99_us on
// rpc-legacy, where scheduling stalls of the one runner thread land
// right at the 99th percentile, and every p999.
var e2eSpecs = []spec{
	{"ops_per_s", "1/s", true},
	{"op_p50_us", "us", true},
	{"op_p90_us", "us", true},
	{"op_p99_us", "us", false},
	{"op_p999_us", "us", false},
	{"read_p50_us", "us", false},
	{"read_p90_us", "us", false},
	{"read_p99_us", "us", false},
	{"read_p999_us", "us", false},
	{"write_p50_us", "us", false},
	{"write_p90_us", "us", false},
	{"write_p99_us", "us", false},
	{"write_p999_us", "us", false},
	{"cpu_us_per_op", "us/op", true},
	{"setup_s", "s", true},
	{"alloc_bytes_per_op", "B/op", true},
	{"live_heap_mb", "MB", true},
	{"space_bytes_per_live_byte", "ratio", true},
	{"fail_ratio", "ratio", false},
	{"dev_bytes_per_user_byte", "ratio", false},
	{"sim_jiffies_per_req", "jiffies/req", false},
}

// units maps every metric the benchmark can report to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, s := range append(append([]spec(nil), e2eSpecs...), layerSpecs...) {
		u[s.name] = s.unit
	}
	return u
}()

// unit returns name's unit; an unknown name is a bug in the benchmark.
func unit(name string) string {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the metric table")
	}
	return u
}

// specsFor returns the metric table of a run's kind.
func specsFor(traced bool) []spec {
	if traced {
		return layerSpecs
	}
	return e2eSpecs
}

func main() {
	var o options
	var trace int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	flag.StringVar(&o.workload, "workload", "all", "workload: "+strings.Join(names, ", ")+", or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the only source of the inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer table and metrics")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fail("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		fail("--seconds must be positive")
	}
	if o.workload != "all" {
		if _, ok := lookupWorkload(o.workload); !ok {
			fail("unknown workload %q (want one of %s, or all)", o.workload, strings.Join(names, ", "))
		}
		names = []string{o.workload}
	}

	// Lock validation (lockdep) is a debugging aid that serializes on a
	// global graph; every workload runs with it off.
	kbase.SetLockValidation(false)
	printHost(o)

	var results []*result
	for _, name := range names {
		o := o
		o.workload = name
		res, err := runWorkload(o)
		if err != nil {
			fail("%s: %v", name, err)
		}
		printReport(res)
		results = append(results, res)
	}
	out, ok := summary(results)
	data, err := json.Marshal(out)
	if err != nil {
		fail("encoding result: %v", err)
	}
	fmt.Println(string(data))
	if !ok {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// printHost records the machine the numbers come from.
func printHost(o options) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, after, ok := strings.Cut(line, ":"); ok {
					cpu = strings.TrimSpace(after)
				}
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
}

func printReport(r *result) {
	kind := "end-to-end"
	if r.traced {
		kind = "per-layer"
	}
	fmt.Printf("== %s (%s): attempted=%d failed=%d correct=%v\n", r.workload, kind, r.attempted, r.failed, r.correct)
	for _, s := range specsFor(r.traced) {
		m, ok := r.metrics[s.name]
		switch {
		case !ok:
		case m.NA:
			fmt.Printf("  %-40s %14s %-11s n/a: %s\n", s.name, "-", s.unit, m.Note)
		default:
			line := fmt.Sprintf("  %-40s %14.4f %-11s n=%d", s.name, m.Value, s.unit, m.Samples)
			if m.Note != "" {
				line += "  (" + m.Note + ")"
			}
			fmt.Println(line)
		}
	}
	for _, l := range r.report {
		fmt.Println(l)
	}
	for _, e := range r.errors {
		fmt.Printf("  CORRECTNESS ERROR: %s\n", e)
	}
}

// jsonMetric is one entry of the last line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summary builds the last output line. Only the declared metrics of
// the run's kind go into it (end-to-end for untraced runs, per-layer
// for traced ones); a metric a workload cannot measure is written as
// -1. With several workloads, names are prefixed "<workload>/".
func summary(results []*result) (jsonResult, bool) {
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		out.Correct = out.Correct && r.correct
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, s := range specsFor(r.traced) {
			m, ok := r.metrics[s.name]
			if !s.declared || !ok {
				continue
			}
			name := s.name
			if len(results) > 1 {
				name = r.workload + "/" + name
			}
			v := m.Value
			switch {
			case m.NA:
				v = -1
			case math.IsInf(v, 1):
				// A latency quantile that falls on a failed op: past
				// every limit, as far as JSON numbers go.
				v = math.MaxFloat64
			}
			out.Metrics[name] = jsonMetric{Value: v, Unit: s.unit}
		}
	}
	return out, out.Correct
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Command kiobench measures the async I/O engine (kio) against the
// synchronous block path and writes BENCH_kio.json — the evidence
// behind the overlapped-commit and zero-copy claims:
//
//   - sync vs async ns per durable write at queue depth 1/8/32 on an
//     fsync-heavy group-commit workload (every batch ends in a flush
//     barrier, so QD amortizes the flush the way jbd2's group commit
//     amortizes the commit record);
//   - copies per write on the memcpy path (Batch.Write) vs the
//     ownership move path (Batch.WriteOwned), verified from the
//     engine's BytesCopied/CopiesPerformed/CopiesAvoided counters,
//     not inferred from timing;
//   - the disabled-tracepoint gate share of the async path, read
//     against the same ≤5% line as BENCH_trace.json.
//
// Runs at GOMAXPROCS 1, 4, and 8, mirroring `-cpu 1,4,8`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/own"
)

const (
	benchBlocks    = 4096
	benchBlockSize = 512
)

// PerCPU holds one configuration's ns-per-durable-write at each
// GOMAXPROCS setting.
type PerCPU struct {
	CPU1 float64 `json:"cpu1"`
	CPU4 float64 `json:"cpu4"`
	CPU8 float64 `json:"cpu8"`
}

// CopyStats is the counter-verified copy accounting for one path.
type CopyStats struct {
	Writes          uint64  `json:"writes"`
	CopiesPerformed uint64  `json:"copies_performed"`
	CopiesAvoided   uint64  `json:"copies_avoided"`
	BytesCopied     uint64  `json:"bytes_copied"`
	CopiesPerWrite  float64 `json:"copies_per_write"`
}

// Result is the BENCH_kio.json schema.
type Result struct {
	Experiment string               `json:"experiment"`
	Date       string               `json:"date,omitempty"`
	Command    string               `json:"command"`
	Host       map[string]any       `json:"host"`
	Caveat     string               `json:"caveat"`
	NsPerWrite map[string]PerCPU    `json:"results_ns_per_durable_write"`
	DeviceTime map[string]float64   `json:"simulated_device_jiffies_per_durable_write"`
	Derived    map[string]string    `json:"derived"`
	Copies     map[string]CopyStats `json:"copies_per_write"`
	Gate       map[string]float64   `json:"tracepoint_gate"`
}

func newDevice() *blockdev.Device {
	return blockdev.New(blockdev.Config{
		Blocks: benchBlocks, BlockSize: benchBlockSize, Rng: kbase.NewRng(42),
	})
}

// benchSync is the baseline: one write + one flush per durable write,
// the shape of a journal commit record without group commit.
func benchSync() float64 {
	dev := newDevice()
	buf := make([]byte, benchBlockSize)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blk := uint64(i) % benchBlocks
			if err := dev.Write(blk, buf); err != kbase.EOK {
				b.Fatalf("Write: %v", err)
			}
			if err := dev.Flush(); err != kbase.EOK {
				b.Fatalf("Flush: %v", err)
			}
		}
	})
	return nsPerOp(res)
}

// benchAsync issues qd writes and one barrier per batch through the
// engine; reported per durable write, so the barrier cost is
// amortized across the queue depth exactly as group commit amortizes
// the commit flush.
func benchAsync(qd int) float64 {
	dev := newDevice()
	e := kio.New(dev, kio.Config{Workers: 4})
	defer e.Close()
	buf := make([]byte, benchBlockSize)
	res := testing.Benchmark(func(b *testing.B) {
		batch := e.NewBatch()
		for i := 0; i < b.N; i++ {
			blk := uint64(i) % benchBlocks
			if err := batch.Write(blk, buf, 0); err != kbase.EOK {
				b.Fatalf("Write: %v", err)
			}
			if (i+1)%qd == 0 || i == b.N-1 {
				batch.Barrier(0)
				t := batch.Submit()
				if err := t.Err(); err != kbase.EOK {
					b.Fatalf("batch: %v", err)
				}
				batch = e.NewBatch()
			}
		}
	})
	return nsPerOp(res)
}

// measureDeviceTime charges realistic relative I/O costs to the
// device's simulated clock (a queued write is cheap, a flush/FUA
// barrier is expensive) and reports jiffies consumed per durable
// write. Unlike wall-clock ns on an in-memory device — where a flush
// is a map move and costs nothing — this is the axis on which group
// commit actually pays: sync spends write+flush per write, a QD-n
// batch spends n writes plus one flush. qd 0 selects the sync path.
func measureDeviceTime(qd int) float64 {
	const (
		writeCost = 1
		flushCost = 20 // FUA/flush vs queued write, conservative SSD ratio
		writes    = 4096
	)
	clock := kbase.NewClock()
	dev := blockdev.New(blockdev.Config{
		Blocks: benchBlocks, BlockSize: benchBlockSize,
		WriteCost: writeCost, FlushCost: flushCost,
		Clock: clock, Rng: kbase.NewRng(42),
	})
	buf := make([]byte, benchBlockSize)
	start := clock.Now()
	if qd == 0 {
		for i := 0; i < writes; i++ {
			if err := dev.Write(uint64(i)%benchBlocks, buf); err != kbase.EOK {
				die("write", err)
			}
			if err := dev.Flush(); err != kbase.EOK {
				die("flush", err)
			}
		}
	} else {
		e := kio.New(dev, kio.Config{Workers: 4})
		defer e.Close()
		batch := e.NewBatch()
		for i := 0; i < writes; i++ {
			if err := batch.Write(uint64(i)%benchBlocks, buf, 0); err != kbase.EOK {
				die("batch write", err)
			}
			if (i+1)%qd == 0 {
				batch.Barrier(0)
				batch.Submit().Wait()
				batch = e.NewBatch()
			}
		}
		batch.Barrier(0)
		batch.Submit().Wait()
	}
	return float64(clock.Now()-start) / float64(writes)
}

// die aborts the benchmark: a measured loop that swallowed an I/O
// error would go on to report a meaningless number.
func die(what string, err kbase.Errno) {
	fmt.Fprintf(os.Stderr, "kiobench: %s: %v\n", what, err)
	os.Exit(1)
}

// nsPerOp recovers sub-ns resolution lost to NsPerOp's truncation.
func nsPerOp(res testing.BenchmarkResult) float64 {
	if res.N == 0 {
		return 0
	}
	return float64(res.T.Nanoseconds()) / float64(res.N)
}

// atCPUs runs f at GOMAXPROCS 1, 4, and 8.
func atCPUs(f func() float64) PerCPU {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var out PerCPU
	for _, n := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(n)
		v := f()
		switch n {
		case 1:
			out.CPU1 = v
		case 4:
			out.CPU4 = v
		case 8:
			out.CPU8 = v
		}
	}
	return out
}

// measureCopies drives writes writes through one path and reads the
// engine's copy counters back.
func measureCopies(writes int, owned bool) (CopyStats, error) {
	dev := newDevice()
	e := kio.New(dev, kio.Config{Workers: 4})
	defer e.Close()
	batch := e.NewBatch()
	for i := 0; i < writes; i++ {
		blk := uint64(i) % benchBlocks
		var err kbase.Errno
		if owned {
			page := make([]byte, benchBlockSize)
			err = batch.WriteOwned(blk, own.New(nil, "kiobench:page", page), 0)
		} else {
			buf := make([]byte, benchBlockSize)
			err = batch.Write(blk, buf, 0)
		}
		if err != kbase.EOK {
			return CopyStats{}, fmt.Errorf("write %d: %v", i, err)
		}
		if (i+1)%64 == 0 {
			if err := batch.Submit().Err(); err != kbase.EOK {
				return CopyStats{}, fmt.Errorf("batch: %v", err)
			}
			batch = e.NewBatch()
		}
	}
	if err := batch.Submit().Err(); err != kbase.EOK {
		return CopyStats{}, fmt.Errorf("final batch: %v", err)
	}
	st := e.Stats()
	cs := CopyStats{
		Writes:          uint64(writes),
		CopiesPerformed: st.CopiesPerformed,
		CopiesAvoided:   st.CopiesAvoided,
		BytesCopied:     st.BytesCopied,
		CopiesPerWrite:  float64(st.CopiesPerformed) / float64(writes),
	}
	return cs, nil
}

// measureGate estimates the disabled-tracepoint share of the async
// path: gate cost per emit times emits per durable write.
func measureGate(asyncNs float64) map[string]float64 {
	gate := ktrace.New("kiobench:gate")
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gate.Emit(0, uint64(i), 0)
		}
	})
	gateNs := nsPerOp(res)

	// Count emits per durable write with tracing enabled on a short
	// async run (submit + complete per write, plus per-batch barrier
	// and reap events).
	dev := newDevice()
	e := kio.New(dev, kio.Config{Workers: 4})
	defer e.Close()
	ktrace.EnableAll()
	defer ktrace.DisableAll()
	before := ktrace.Buffer().Emitted()
	const writes, qd = 4096, 8
	buf := make([]byte, benchBlockSize)
	batch := e.NewBatch()
	for i := 0; i < writes; i++ {
		if err := batch.Write(uint64(i)%benchBlocks, buf, 0); err != kbase.EOK {
			die("batch write", err)
		}
		if (i+1)%qd == 0 {
			batch.Barrier(0)
			batch.Submit().Wait()
			batch = e.NewBatch()
		}
	}
	emits := float64(ktrace.Buffer().Emitted()-before) / float64(writes)

	pct := 0.0
	if asyncNs > 0 {
		pct = 100 * gateNs * emits / asyncNs
	}
	return map[string]float64{
		"gate_ns_per_emit":             gateNs,
		"emits_per_durable_write":      emits,
		"disabled_overhead_pct_of_qd8": pct,
		"acceptance_line_pct":          5,
	}
}

func hostInfo() map[string]any {
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
	return map[string]any{
		"cpu":    cpu,
		"cores":  runtime.NumCPU(),
		"goos":   runtime.GOOS,
		"goarch": runtime.GOARCH,
	}
}

func pctFaster(sync, async float64) string {
	if sync == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%% (%.1f -> %.1f per write)", 100*(async-sync)/sync, sync, async)
}

func run(date string) (*Result, error) {
	prevLV := kbase.SetLockValidation(false)
	defer kbase.SetLockValidation(prevLV)

	res := &Result{
		Experiment: "kio async submission/completion vs sync block path; zero-copy ownership accounting",
		Date:       date,
		Command:    "make bench-kio",
		Host:       hostInfo(),
		NsPerWrite: map[string]PerCPU{},
		Derived:    map[string]string{},
		Copies:     map[string]CopyStats{},
	}

	res.NsPerWrite["sync_write_flush"] = atCPUs(benchSync)
	for _, qd := range []int{1, 8, 32} {
		qd := qd
		res.NsPerWrite[fmt.Sprintf("async_qd%d", qd)] = atCPUs(func() float64 { return benchAsync(qd) })
	}

	syncNs := res.NsPerWrite["sync_write_flush"]
	res.Derived["wallclock_async_qd1_vs_sync_cpu1"] = pctFaster(syncNs.CPU1, res.NsPerWrite["async_qd1"].CPU1)
	res.Derived["wallclock_async_qd8_vs_sync_cpu1"] = pctFaster(syncNs.CPU1, res.NsPerWrite["async_qd8"].CPU1)
	res.Derived["wallclock_async_qd32_vs_sync_cpu1"] = pctFaster(syncNs.CPU1, res.NsPerWrite["async_qd32"].CPU1)
	res.Derived["wallclock_batching_qd8_vs_qd1_cpu1"] = pctFaster(res.NsPerWrite["async_qd1"].CPU1, res.NsPerWrite["async_qd8"].CPU1)
	res.Derived["wallclock_batching_qd32_vs_qd1_cpu1"] = pctFaster(res.NsPerWrite["async_qd1"].CPU1, res.NsPerWrite["async_qd32"].CPU1)

	res.DeviceTime = map[string]float64{
		"sync_write_flush": measureDeviceTime(0),
		"async_qd1":        measureDeviceTime(1),
		"async_qd8":        measureDeviceTime(8),
		"async_qd32":       measureDeviceTime(32),
	}
	res.Derived["devicetime_async_qd8_vs_sync"] = pctFaster(
		res.DeviceTime["sync_write_flush"], res.DeviceTime["async_qd8"])
	res.Derived["devicetime_async_qd32_vs_sync"] = pctFaster(
		res.DeviceTime["sync_write_flush"], res.DeviceTime["async_qd32"])

	const copyWrites = 8192
	cs, err := measureCopies(copyWrites, false)
	if err != nil {
		return nil, err
	}
	res.Copies["copy_path"] = cs
	cs, err = measureCopies(copyWrites, true)
	if err != nil {
		return nil, err
	}
	res.Copies["ownership_path"] = cs

	res.Gate = measureGate(res.NsPerWrite["async_qd8"].CPU1)
	res.Caveat = caveat(res)
	return res, nil
}

// caveat states async versus sync from the measured numbers, so the
// prose cannot drift from the data next to it.
func caveat(res *Result) string {
	var b strings.Builder
	syncNs := res.NsPerWrite["sync_write_flush"].CPU1
	fmt.Fprintf(&b, "Measured on a %d-core host, at GOMAXPROCS=1, per durable write: "+
		"sync write+flush takes %.0f ns", runtime.NumCPU(), syncNs)
	asyncWins := false
	for _, qd := range []int{1, 8, 32} {
		a := res.NsPerWrite[fmt.Sprintf("async_qd%d", qd)].CPU1
		if a < syncNs {
			asyncWins = true
			fmt.Fprintf(&b, "; async QD%d takes %.0f ns, %.1fx faster", qd, a, syncNs/a)
		} else {
			fmt.Fprintf(&b, "; async QD%d takes %.0f ns, %.1fx slower", qd, a, a/syncNs)
		}
	}
	b.WriteString(". ")
	if !asyncWins {
		b.WriteString("On wall clock, sync is faster at every queue depth: the device is " +
			"in memory, so a flush, the cost that queue depth amortizes, is nearly free, " +
			"and what remains is the engine's own per-batch work. ")
	}
	b.WriteString("Each figure is one testing.Benchmark run, so ratios near 1 are within " +
		"run-to-run noise. ")
	fmt.Fprintf(&b, "The async win shows only on the simulated device clock, where a flush "+
		"carries a realistic cost: per durable write, async QD8 changes device time by %s "+
		"and QD32 by %s against sync.",
		res.Derived["devicetime_async_qd8_vs_sync"], res.Derived["devicetime_async_qd32_vs_sync"])
	return b.String()
}

func main() {
	out := flag.String("out", "BENCH_kio.json", "output file (- for stdout)")
	date := flag.String("date", "", "date stamp to embed (omitted if empty)")
	flag.Parse()

	res, err := run(*date)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kiobench: %v\n", err)
		os.Exit(1)
	}
	data, jerr := json.MarshalIndent(res, "", "  ")
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "kiobench: %v\n", jerr)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "kiobench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("kiobench: wrote %s\n", *out)
}

package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/pkg/safelinux"
)

func init() { kbase.SetLockValidation(false) }

// short runs one workload briefly.
func short(t *testing.T, workload string, seed uint64, trace bool) *result {
	t.Helper()
	res, err := runWorkload(options{workload: workload, seed: seed, seconds: 0.4, trace: trace, setups: 1})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.correct {
		t.Fatalf("%s: correctness errors: %v", workload, res.errors)
	}
	return res
}

// declaration is the part of BENCHMARK.json the benchmark must agree
// with.
type declaration struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricTablesMatchDeclaration: BENCHMARK.json declares exactly the
// metrics the tables mark declared, in the same order and with the
// same units, and only workloads the benchmark runs.
func TestMetricTablesMatchDeclaration(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declaration
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, table []spec) {
		var want []spec
		for _, s := range table {
			if s.declared {
				want = append(want, s)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the table %d", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s metric %d is %s in %s, the table has %s in %s", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, e2eSpecs)
	check("per_layer", decl.PerLayer, layerSpecs)
	for _, w := range decl.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
		}
	}
}

// TestEveryMetricReported: a short run of each workload reports every
// declared metric, either with a sample count or with a reason it is
// unavailable, and the JSON line carries exactly the declared set.
func TestEveryMetricReported(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := short(t, w.name, 1, trace)
			var declared int
			for _, s := range specsFor(trace) {
				if !s.declared {
					continue
				}
				declared++
				m, ok := res.metrics[s.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, s.name)
				case m.NA && m.Note == "":
					t.Errorf("%s trace=%v: metric %s unavailable without a reason", w.name, trace, s.name)
				case !m.NA && m.Samples < 1:
					t.Errorf("%s trace=%v: metric %s has no sample count", w.name, trace, s.name)
				}
			}
			out, ok := summary([]*result{res})
			if !ok || len(out.Metrics) != declared {
				t.Errorf("%s trace=%v: JSON line has %d metrics (correct=%v), want %d", w.name, trace, len(out.Metrics), ok, declared)
			}
		}
	}
}

// TestProtocolCountsRepeat: the rpc protocol counts cover a fixed
// prefix of requests after a fixed warm-up, so they repeat exactly
// for a seed and move with it. (Seeds 1 and 2 happen to retransmit
// the same number of times in the prefix; 1 and 3 differ in all
// three counts.)
func TestProtocolCountsRepeat(t *testing.T) {
	for _, w := range []string{"rpc-legacy", "rpc-safe"} {
		retx := "net.retransmits_per_req"
		if w == "rpc-safe" {
			retx = "safetcp.retransmits_per_req"
		}
		counts := func(seed uint64) map[string]metric {
			m := short(t, w, seed, true).metrics
			m["sim_jiffies_per_req"] = short(t, w, seed, false).metrics["sim_jiffies_per_req"]
			return m
		}
		a, b, c := counts(1), counts(1), counts(3)
		for _, n := range []string{"sim_jiffies_per_req", "net.packets_per_req", retx} {
			if a[n].NA || a[n].Samples == 0 || a[n].Value != b[n].Value {
				t.Errorf("%s: %s = %+v then %+v with the same seed", w, n, a[n], b[n])
			}
			if a[n].Value == c[n].Value {
				t.Errorf("%s: %s = %v with seeds 1 and 3", w, n, a[n].Value)
			}
		}
	}
}

// TestCorruptionFailsGate: a value changed behind the benchmark's back
// is a correctness error, on the kv read path, in the sweep and in an
// rpc reply, and it makes the JSON line report correct=false.
func TestCorruptionFailsGate(t *testing.T) {
	cfg := bootConfig(7)
	k, err := safelinux.New(cfg)
	if err != kbase.EOK {
		t.Fatal(err)
	}
	defer k.Close()
	st, perr := populate(k, 7, 64, 4)
	if perr != nil {
		t.Fatal(perr)
	}
	const victim = 5
	fd, err := k.VFS.Open(k.Task, st.paths[victim], vfs.OWrOnly)
	if err != kbase.EOK {
		t.Fatal(err)
	}
	if _, err := k.VFS.Pwrite(k.Task, fd, []byte{0xA5}, 700); err != kbase.EOK {
		t.Fatal(err)
	}
	if err := k.VFS.CloseAs(k.Task, fd); err != kbase.EOK {
		t.Fatal(err)
	}

	var errs errorLog
	buf, scratch := make([]byte, valueSize), make([]byte, valueSize)
	if err := st.read(k.Task, victim, buf, scratch, &errs); err != kbase.EOK {
		t.Fatal(err)
	}
	if errs.n != 1 || !strings.Contains(errs.first[0], "byte 700") {
		t.Fatalf("read of the corrupted key: errors %v, want one naming byte 700", errs.list())
	}
	if err := st.read(k.Task, victim+1, buf, scratch, &errs); err != kbase.EOK || errs.n != 1 {
		t.Fatalf("read of an intact key: %v, errors %v", err, errs.list())
	}

	errs = errorLog{}
	st.sweep(&errs)
	if errs.n != 1 {
		t.Fatalf("sweep: %d errors (%v), want 1", errs.n, errs.list())
	}

	tr, lerr := listen(k)
	if lerr != nil {
		t.Fatal(lerr)
	}
	d := newRPCRunner(st, tr, 7)
	for len(d.samples) < 200 {
		d.iterate()
	}
	if d.errs.n == 0 {
		t.Fatal("rpc: no correctness error after 200 requests over 64 keys, one of them corrupted")
	}

	if _, ok := summary([]*result{{workload: "kv-legacy", correct: false, errors: errs.list(), attempted: 1}}); ok {
		t.Fatal("summary reports correct with a correctness error")
	}
}

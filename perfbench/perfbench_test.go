package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// serve-small re-executes the test binary as its jobd worker.
	if dir := os.Getenv(workerEnv); dir != "" {
		os.Exit(workerMain(dir))
	}
	// The benchmark runs from the repository root, where the fuzz seed
	// corpus and BENCHMARK.json are.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func smallOptions(t *testing.T, trace bool) options {
	return options{seed: 0, seconds: 0.05, trace: trace, small: true, out: t.TempDir()}
}

// Every workload at its smallest size must pass its output checks.
func TestWorkloadsPassChecks(t *testing.T) {
	for _, name := range names() {
		t.Run(name, func(t *testing.T) {
			o := smallOptions(t, false)
			o.seed = workloads[name]
			out, err := measure(name, o, newTracer(false))
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.failures)
			}
			m, err := out.metrics(false)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				if name != "serve-small" || out.windowOps > 0 {
					if v := m[d.Name]; !(v > 0) {
						t.Errorf("%s = %v, want > 0", d.Name, v)
					}
				}
			}
		})
	}
}

// A traced run reports every per-layer metric, and its profile buckets
// add up to the profiled total.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	o := smallOptions(t, true)
	o.seconds = 0.3
	o.seed = rsyncSeed
	var stdout bytes.Buffer
	res, err := execute("rsync-ooo", o, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect run:\n%s", stdout.String())
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("missing %s", d.Name)
		}
	}
	var sum float64
	for _, name := range bucketMetric {
		sum += res.Metrics[name].Value
	}
	if total := res.Metrics["prof.total_s"].Value; math.Abs(sum-total) > 1e-9 {
		t.Errorf("buckets sum to %v, total %v", sum, total)
	}
	if res.Metrics["model.k8_error_pct"].Value <= 0 {
		t.Error("no Table 1 error")
	}
}

// The model fingerprint repeats across two in-process runs.
func TestFingerprintRepeats(t *testing.T) {
	o := smallOptions(t, false)
	tr := newTracer(false)
	rs, err := newRsyncOOO(o)
	if err != nil {
		t.Fatal(err)
	}
	smt, err := newSMTLock(o)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := newFuzzDual(o, tr, &outcome{})
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]sequential{"rsync-ooo": rs, "smt-lock": smt, "fuzz-dual": fz} {
		for i := 0; i < w.inputs(); i++ {
			a, b := w.run(i, tr), w.run(i, tr)
			if a.err != nil || b.err != nil {
				t.Fatalf("%s input %d: %v, %v", name, i, a.err, b.err)
			}
			if a.fp != b.fp || a.fp == 0 {
				t.Errorf("%s input %d: fingerprints %016x and %016x", name, i, a.fp, b.fp)
			}
		}
	}
}

// A changed fingerprint fails the run that sees it.
func TestMemoFailsOnMismatch(t *testing.T) {
	o := smallOptions(t, false)
	first := &outcome{fingerprint: 1, model: map[string]float64{"ooo.ipc": 0.5}}
	if err := checkMemo(o, "smt-lock", "src", first); err != nil || first.failed != 0 {
		t.Fatalf("first run: %v, %v", err, first.failures)
	}
	same := &outcome{fingerprint: 1, model: map[string]float64{"ooo.ipc": 0.5}}
	if err := checkMemo(o, "smt-lock", "src", same); err != nil || same.failed != 0 {
		t.Fatalf("same run: %v, %v", err, same.failures)
	}
	diff := &outcome{fingerprint: 2, model: map[string]float64{"ooo.ipc": 0.5000001}}
	if err := checkMemo(o, "smt-lock", "src", diff); err != nil || diff.failed != 2 {
		t.Fatalf("changed run: %v, failed %d", err, diff.failed)
	}
}

func TestBucketOf(t *testing.T) {
	const p = "ptlsim/internal/"
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"ooo.fetch", []string{p + "ooo.(*Core).fetchThread", p + "ooo.(*Core).fetch", p + "ooo.(*Core).Cycle"}},
		{"ooo.issue", []string{p + "stats.(*Counter).Inc", p + "ooo.(*Core).execute", p + "ooo.(*Core).issue", p + "ooo.(*Core).Cycle"}},
		{"cache", []string{"runtime.memmove", p + "cache.(*Cache).Access", p + "ooo.(*Core).issue"}},
		{"runtime.malloc", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", p + "ooo.(*Core).rename"}},
		{"runtime.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"ooo.other", []string{p + "ooo.(*Core).Cycle", p + "core.(*Machine).Step"}},
		{"audit", []string{p + "ooo.(*Core).auditROB", p + "ooo.(*Core).Audit", p + "ooo.(*Core).Cycle"}},
		{"audit", []string{p + "selfcheck.(*Oracle).Check", p + "ooo.(*Core).commit"}},
		{"audit", []string{p + "cache.(*Cache).Audit", p + "cache.(*Hierarchy).Audit", p + "ooo.(*Core).Audit", p + "ooo.(*Core).Cycle"}},
		{"audit", []string{p + "mem.(*PhysMem).Read", p + "ooo.(*Core).auditLSQ.func1", p + "ooo.(*Core).auditLSQ"}},
		{"runtime.malloc", []string{"runtime.mallocgc", p + "cache.(*Cache).Audit", p + "ooo.(*Core).Audit"}},
		{"ooo.commit", []string{p + "ooo.(*Core).commit.func1", p + "ooo.(*Core).commit"}},
		{"tlb", []string{p + "mem.(*AddressSpace).Walk", p + "ooo.(*Core).pageWalk", p + "ooo.(*Core).fetch"}},
		{"decode", []string{p + "bbcache.(*Cache).Lookup", p + "ooo.(*Core).fetch"}},
		{"conformance", []string{p + "x86.(*Assembler).Mov", p + "conformance.GenDSL"}},
		{"other", []string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}},
		{"other", nil},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("%v: got %s, want %s", c.stack, got, c.want)
		}
		if _, ok := bucketMetric[bucketOf(c.stack)]; !ok {
			t.Errorf("%v: bucket without a metric", c.stack)
		}
	}
}

// Every sample of a real profile is charged to exactly one bucket.
func TestProfileBucketsChargeEverySampleOnce(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	w, err := newSMTLock(smallOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		if r := w.run(0, newTracer(false)); r.err != nil {
			t.Fatal(r.err)
		}
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Fatal("no samples")
	}
	counts := map[string]int{}
	var total int64
	for _, s := range stacks {
		counts[bucketOf(s.funcs)]++
		total += s.nanos
	}
	var n int
	for _, c := range counts {
		n += c
	}
	if n != len(stacks) {
		t.Fatalf("%d samples charged, %d in the profile", n, len(stacks))
	}
	buckets, sec := bucketize(stacks)
	var sum float64
	for _, v := range buckets {
		sum += v
	}
	if math.Abs(sum-sec) > 1e-9 || math.Abs(sec-float64(total)/1e9) > 1e-9 {
		t.Fatalf("buckets %v s, total %v s, samples %v s", sum, sec, float64(total)/1e9)
	}
	if counts["ooo.issue"] == 0 {
		t.Errorf("no samples in the issue stage: %v", counts)
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the program
// reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(names(), ",") {
		t.Errorf("workloads %v, program has %v", got, names())
	}
	eq := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, a[i], b[i])
			}
		}
	}
	eq("end_to_end", spec.EndToEnd, endToEnd)
	eq("per_layer", spec.PerLayer, perLayer)
}

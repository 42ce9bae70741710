// Command perfbench is the repository benchmark. One invocation runs
// one workload for a fixed time, checks every output, and prints its
// metrics; the last line of standard output is a JSON result. See
// README.md for the workloads, the metrics and what moves them.
//
//	bash perfbench/run.sh --workload rsync-ooo --seed 20070425 --seconds 15 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of untraced runs. Every workload reports
// all of them; README.md says what an operation is per workload.
var endToEnd = []metricDef{
	{"sim_insns_per_s", "1/s", "higher", 0.25},
	{"sim_cycles_per_s", "1/s", "higher", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_s", "s", "lower", 0.25},
	{"op_p90_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.2},
}

// perLayer are the metrics of traced runs. A layer a workload does
// not exercise reads 0.
var perLayer = []metricDef{
	{"guest.build_s", "s", "lower", 0},
	{"kern.build_s", "s", "lower", 0},
	{"core.new_machine_s", "s", "lower", 0},
	{"prof.total_s", "s", "lower", 0},
	{"ooo.fetch_s", "s", "lower", 0},
	{"ooo.rename_s", "s", "lower", 0},
	{"ooo.issue_s", "s", "lower", 0},
	{"ooo.writeback_s", "s", "lower", 0},
	{"ooo.commit_s", "s", "lower", 0},
	{"ooo.other_s", "s", "lower", 0},
	{"cache.host_s", "s", "lower", 0},
	{"tlb.host_s", "s", "lower", 0},
	{"bpred.host_s", "s", "lower", 0},
	{"uops.exec_s", "s", "lower", 0},
	{"decode.host_s", "s", "lower", 0},
	{"seqcore.host_s", "s", "lower", 0},
	{"audit.host_s", "s", "lower", 0},
	{"guest.host_s", "s", "lower", 0},
	{"kern.host_s", "s", "lower", 0},
	{"core.host_s", "s", "lower", 0},
	{"conformance.host_s", "s", "lower", 0},
	{"jobd.host_s", "s", "lower", 0},
	{"runtime.gc_s", "s", "lower", 0},
	{"runtime.malloc_s", "s", "lower", 0},
	{"other.host_s", "s", "lower", 0},
	{"conformance.gen_s", "s", "lower", 0},
	{"conformance.build_s", "s", "lower", 0},
	{"conformance.case_s", "s", "lower", 0},
	{"runtime.alloc_bytes_per_insn", "B", "lower", 0},
	{"runtime.mallocs_per_insn", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"jobd.verdict_p50_s", "s", "lower", 0},
	{"jobd.verdict_p90_s", "s", "lower", 0},
	{"jobd.submit_s", "s", "lower", 0},
	{"jobd.queue_wait_s", "s", "lower", 0},
	{"jobd.run_s", "s", "lower", 0},
	{"jobd.overhead_s", "s", "lower", 0},
	{"jobd.notify_s", "s", "lower", 0},
	{"jobd.attempts_per_job", "count", "lower", 0},
	{"jobd.rejects", "count", "lower", 0},
	{"trace.sim_insns_per_s", "1/s", "higher", 0},
	{"model.k8_error_pct", "%", "lower", 0},
	{"core.idle_share", "ratio", "lower", 0},
	{"ooo.cycles", "cycles", "lower", 0},
	{"ooo.ipc", "insn/cycle", "higher", 0},
	{"ooo.uops_per_insn", "uop/insn", "lower", 0},
	{"ooo.replays_per_uop", "ratio", "lower", 0},
	{"ooo.flushes", "count", "lower", 0},
	{"ooo.stall_iq_full", "cycles", "lower", 0},
	{"ooo.stall_rob_full", "cycles", "lower", 0},
	{"ooo.lock_replays", "count", "lower", 0},
	{"cache.l1d_miss_ratio", "ratio", "lower", 0},
	{"cache.l2_miss_ratio", "ratio", "lower", 0},
	{"cache.bank_replays", "count", "lower", 0},
	{"cache.writebacks", "count", "lower", 0},
	{"tlb.dtlb_misses", "count", "lower", 0},
	{"tlb.pagewalks", "count", "lower", 0},
	{"bpred.mispredict_ratio", "ratio", "lower", 0},
	{"bbcache.hit_ratio", "ratio", "higher", 0},
}

// workloads maps each workload name to its default seed.
var workloads = map[string]int64{
	"rsync-ooo":   rsyncSeed,
	"fuzz-dual":   1,
	"smt-lock":    1,
	"serve-small": 1,
}

func main() {
	if dir := os.Getenv(workerEnv); dir != "" {
		os.Exit(workerMain(dir))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "rsync-ooo | fuzz-dual | smt-lock | serve-small")
	seed := fl.Int64("seed", 0, "workload seed (0 = the workload's default)")
	seconds := fl.Float64("seconds", 10, "length of the measured window")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(names(), ", "))
		return 2
	}
	if *seed == 0 {
		*seed = def
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1,
		out: filepath.Join(".bench_build", "perfbench")}
	res, err := execute(*name, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func names() []string {
	var n []string
	for k := range workloads {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure runs one workload and returns its outcome.
func measure(name string, o options, tr *tracer) (*outcome, error) {
	switch name {
	case "rsync-ooo":
		w, err := newRsyncOOO(o)
		if err != nil {
			return nil, err
		}
		out := &outcome{layers: map[string]float64{}, seeds: w.seeds()}
		if err := runSequential(w, o, tr, out); err != nil || !o.trace {
			return out, err
		}
		out.layers["guest.build_s"] = tr.median("guest.RsyncBenchmark")
		out.layers["kern.build_s"] = tr.median("kern.Build")
		out.layers["core.new_machine_s"] = tr.median("core.NewMachine")
		k8, cycles, err := w.k8Error()
		if err != nil {
			return nil, fmt.Errorf("table 1: %w", err)
		}
		if cycles != w.cycles {
			out.fail("table 1 sim trial ran %d cycles, the benchmark's runs %d", cycles, w.cycles)
		}
		out.model["model.k8_error_pct"] = k8
		return out, nil
	case "fuzz-dual":
		out := &outcome{layers: map[string]float64{}}
		w, err := newFuzzDual(o, tr, out)
		if err != nil {
			return nil, err
		}
		if err := runSequential(w, o, tr, out); err != nil {
			return nil, err
		}
		for i := 0; i < min(w.n, fpInputs); i++ {
			out.seeds = append(out.seeds, w.campaignSeed(i))
		}
		out.machines = w.traced
		return out, nil
	case "smt-lock":
		w, err := newSMTLock(o)
		if err != nil {
			return nil, err
		}
		out := &outcome{layers: map[string]float64{}, seeds: []int64{o.seed}}
		return out, runSequential(w, o, tr, out)
	case "serve-small":
		return runServeSmall(o, tr)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// execute measures one workload, checks its fingerprint and model
// counts against earlier runs of the same source and seed, prints the
// human-readable report and provenance, and keeps spans and the full
// record under o.out.
func execute(name string, o options, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	prov := provenance(name, o)
	tr := newTracer(o.trace)
	out, err := measure(name, o, tr)
	if err != nil {
		return nil, err
	}
	prov["input_seeds"] = fmt.Sprint(out.seeds)
	if err := checkMemo(o, name, prov["source"], out); err != nil {
		return nil, err
	}
	vals, err := out.metrics(o.trace)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v\n", name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(stdout, "fingerprint %016x  ops=%d passes=%d window=%.3fs attempted=%d failed=%d fail_ratio=%g\n",
		out.fingerprint, out.windowOps, len(out.passes), out.window.Seconds(),
		out.attempted, out.failed, float64(out.failed)/float64(max(out.attempted, 1)))
	for _, f := range out.failures {
		fmt.Fprintln(stdout, "FAIL", f)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-30s %16.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	stamp := fmt.Sprintf("%s-%d-t%d-%d", name, o.seed, traceFlag(o.trace), time.Now().UnixNano())
	if o.trace {
		if err := tr.write(filepath.Join(o.out, stamp+".spans.jsonl")); err != nil {
			return nil, err
		}
	}
	record := map[string]any{"provenance": prov, "fingerprint": fmt.Sprintf("%016x", out.fingerprint),
		"failures": out.failures, "result": res}
	b, err := json.MarshalIndent(record, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.out, stamp+".json"), b, 0o644); err != nil {
		return nil, err
	}
	pb, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(pb))
	return res, nil
}

func traceFlag(on bool) int {
	if on {
		return 1
	}
	return 0
}

// provenance records what produced a result.
func provenance(name string, o options) map[string]string {
	p := map[string]string{
		"workload":   name,
		"seed":       fmt.Sprint(o.seed),
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"cpu":        cpuModel(),
		"source":     sourceHash(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash identifies the program's source when the checkout is not
// a git repository: a SHA-256 over the module's Go files, go.mod files
// and the fuzz seed corpus.
func sourceHash() string {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "perfbench", filepath.Join("testdata", "conformance", "seed")} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".json") && filepath.Base(path) != "go.mod" {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
			h.Write(b)
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkMemo compares the run's fingerprint and model counts with the
// first run of the same source, workload, seed and size, recorded
// under o.out. Model counts are compared exactly: a mismatch fails
// the run.
func checkMemo(o options, name, source string, out *outcome) error {
	dir := filepath.Join(o.out, "fingerprints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d-small%v.json", source, name, o.seed, o.small))
	cur := map[string]string{"fingerprint": fmt.Sprintf("%016x", out.fingerprint)}
	for k, v := range out.model {
		cur[k] = fmt.Sprint(v)
	}
	prev := map[string]string{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	changed := false
	for k, v := range cur {
		p, ok := prev[k]
		switch {
		case !ok:
			prev[k] = v
			changed = true
		case p != v:
			out.fail("%s is %s, an earlier run of this source recorded %s", k, v, p)
		}
	}
	if !changed {
		return nil
	}
	b, err = json.MarshalIndent(prev, "", " ")
	if err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

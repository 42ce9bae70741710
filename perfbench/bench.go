package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how often a workload whose operations share one
// set-up repeats it, so that set-up time is a median.
const setupRepeats = 9

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// small shrinks every workload to its smallest size (tests).
	small bool
	// out is the artifact directory (spans, profiles, findings).
	out string
}

// pass is one measured stretch of work: for a sequential workload
// chunk() operations, lasting the sum of their host time; for
// serve-small the whole window.
type pass struct {
	dur           time.Duration
	ops           int
	insns, cycles int64
}

// outcome is what a workload measured and checked in one run.
type outcome struct {
	attempted, failed int
	failures          []string

	setup   []float64 // seconds per set-up
	latency []float64 // host seconds per operation in the window
	passes  []pass

	window    time.Duration
	windowOps int
	insns     int64 // simulated instructions committed in the window
	mem       memDelta
	profiles  [][]byte
	rssMB     float64
	// machines counts core.Machine constructions in the window that
	// no span wrapped, so core.new_machine_s comes from the profile.
	machines int

	seeds       []int64 // input seeds the workload derived from its own
	fingerprint uint64
	model       map[string]float64 // per-operation model counts
	layers      map[string]float64 // workload-specific per-layer values
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type memDelta struct{ alloc, mallocs, gcs uint64 }

// window brackets the timed part of a run: the Go heap counters, the
// resident set and, when tracing, a CPU profile.
type window struct {
	start time.Time
	ms    runtime.MemStats
	prof  *bytes.Buffer
	rss   *rssSampler
}

func openWindow(trace bool) (*window, error) {
	runtime.GC()
	w := &window{}
	if trace {
		w.prof = &bytes.Buffer{}
		if err := pprof.StartCPUProfile(w.prof); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&w.ms)
	w.rss = startRSS()
	w.start = time.Now()
	return w, nil
}

func (w *window) close(o *outcome) {
	o.window = time.Since(w.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.mem.alloc += ms.TotalAlloc - w.ms.TotalAlloc
	o.mem.mallocs += ms.Mallocs - w.ms.Mallocs
	o.mem.gcs += uint64(ms.NumGC - w.ms.NumGC)
	if w.prof != nil {
		pprof.StopCPUProfile()
		o.profiles = append(o.profiles, w.prof.Bytes())
	}
	o.rssMB = w.rss.finish()
}

// rssSampler reads this process's resident set every few
// milliseconds. A run reports the 95th percentile of the samples: the
// plateau the process holds, not a one-off spike of a GC cycle that
// started late, which makes the process maximum jump between runs.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := float64(os.Getpagesize())
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				if f := strings.Fields(string(b)); len(f) > 1 {
					if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
						s.mb = append(s.mb, pages*page/(1<<20))
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the 95th percentile in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return quantile(s.mb, 0.95)
}

// opResult is one operation of a sequential workload. Its latency is
// the process CPU time of its run phase, see cpuTime.
type opResult struct {
	setup, latency time.Duration
	insns, cycles  int64
	fp             uint64
	counts         counts // model counters of the op's simulated machines
	err            error  // a failed output check
}

// sequential is a workload that runs one operation at a time. Input i
// is the same on every run; inputs() of them are distinct, and visits
// wrap around after that.
type sequential interface {
	inputs() int
	// chunk is how many operations make up one measured pass.
	chunk() int
	run(i int, tr *tracer) opResult
}

// The first visits of the first fpInputs inputs make up a run's
// fingerprint and model counts, so both are the same at any run length.
// A window that visits each input only once is followed by a second
// visit of the first recheckInputs of them.
const fpInputs, recheckInputs = 64, 16

// runSequential runs operations over the workload's inputs in order
// until the time is up, ending at a pass boundary. A visit to an input
// seen before must reproduce that input's fingerprint.
func runSequential(w sequential, o options, tr *tracer, out *outcome) error {
	n, chunk := w.inputs(), w.chunk()
	fpn := min(n, fpInputs)
	fps := map[int]uint64{}
	model := counts{}
	visit := func(i int, r opResult) {
		out.attempted++
		if r.err != nil {
			out.fail("input %d: %v", i, r.err)
			return
		}
		if fp, ok := fps[i]; ok {
			if r.fp != fp {
				out.fail("input %d: fingerprint %016x differs from the first run's %016x", i, r.fp, fp)
			}
			return
		}
		fps[i] = r.fp
		if i < fpn {
			for p, v := range r.counts {
				model[p] += v
			}
		}
	}
	win, err := openWindow(o.trace)
	if err != nil {
		return err
	}
	cur := pass{}
	k := 0
	for done := false; !done; k++ {
		i := k % n
		r := w.run(i, tr)
		visit(i, r)
		if r.setup > 0 {
			out.setup = append(out.setup, r.setup.Seconds())
		}
		out.latency = append(out.latency, r.latency.Seconds())
		out.windowOps++
		out.insns += r.insns
		cur.ops++
		cur.dur += r.latency
		cur.insns += r.insns
		cur.cycles += r.cycles
		if cur.ops == chunk {
			out.passes = append(out.passes, cur)
			cur = pass{}
			done = time.Since(win.start).Seconds() >= o.seconds
		}
	}
	win.close(out)
	untimed := newTracer(false)
	for i := k; i < fpn; i++ {
		visit(i, w.run(i, untimed))
	}
	if k < n {
		for i := 0; i < min(k, recheckInputs); i++ {
			visit(i, w.run(i, untimed))
		}
	}
	fp := newFingerprint()
	for i := 0; i < fpn; i++ {
		fp.word(fps[i])
	}
	out.fingerprint = fp.h
	out.model = modelMetrics(model, fpn)
	return nil
}

// cpuTime is the CPU time this process has used on all its threads, so
// the garbage collector's share counts. Time the hypervisor steals
// from the virtual machine does not, which on a shared host makes it a
// much steadier measure of host cost than wall time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metrics turns an outcome into the named metrics of one mode.
func (o *outcome) metrics(trace bool) (map[string]float64, error) {
	var ins, cyc, ops []float64
	for _, p := range o.passes {
		s := p.dur.Seconds()
		ins = append(ins, float64(p.insns)/s)
		cyc = append(cyc, float64(p.cycles)/s)
		ops = append(ops, float64(p.ops)/s)
	}
	m := map[string]float64{
		"sim_insns_per_s":  median(ins),
		"sim_cycles_per_s": median(cyc),
		"ops_per_s":        median(ops),
		"op_p50_s":         quantile(o.latency, 0.5),
		"op_p90_s":         quantile(o.latency, 0.9),
		"setup_s":          median(o.setup),
		"max_rss_mb":       o.rssMB,
	}
	if !trace {
		return m, nil
	}
	l := map[string]float64{"trace.sim_insns_per_s": m["sim_insns_per_s"]}
	perOp := 1 / float64(max(o.windowOps, 1))
	var stacks []stack
	for _, p := range o.profiles {
		s, err := parseProfile(p)
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, s...)
	}
	buckets, total := bucketize(stacks)
	var sum float64
	for b, v := range buckets {
		l[bucketMetric[b]] = v * perOp
		sum += v
	}
	if d := sum - total; d > 1e-6 || d < -1e-6 {
		return nil, fmt.Errorf("profile buckets sum to %gs, profile total is %gs", sum, total)
	}
	l["prof.total_s"] = total * perOp
	l["conformance.gen_s"] = inclusive(stacks, "ptlsim/internal/conformance.GenDSL", "ptlsim/internal/conformance.MutateBytes") * perOp
	l["conformance.build_s"] = inclusive(stacks, "ptlsim/internal/conformance.BuildProgram") * perOp
	l["conformance.case_s"] = inclusive(stacks, "ptlsim/internal/conformance.Config.RunCase") * perOp
	if o.machines > 0 {
		l["core.new_machine_s"] = inclusive(stacks, "ptlsim/internal/core.NewMachine") / float64(o.machines)
	}
	if o.insns > 0 {
		l["runtime.alloc_bytes_per_insn"] = float64(o.mem.alloc) / float64(o.insns)
		l["runtime.mallocs_per_insn"] = float64(o.mem.mallocs) / float64(o.insns)
	}
	l["runtime.gc_cycles"] = float64(o.mem.gcs) * perOp
	for k, v := range o.model {
		l[k] = v
	}
	for k, v := range o.layers {
		l[k] = v
	}
	return l, nil
}

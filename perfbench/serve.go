package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"ptlsim/internal/core"
	"ptlsim/internal/experiments"
	"ptlsim/internal/guest"
	"ptlsim/internal/jobd"
	"ptlsim/internal/kern"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
	"ptlsim/internal/supervisor"
)

// Environment of a re-executed jobd worker: the job directory, and
// whether to profile the worker into that directory.
const (
	workerEnv        = "PERFBENCH_JOBD_WORKER"
	workerProfileEnv = "PERFBENCH_WORKER_PROFILE"
	workerCPUFile    = "perfbench-cpu.pprof"
	workerStatsFile  = "perfbench-worker.json"
)

const (
	serveClients = 2
	serveSpecs   = 8
	// serveColdStarts is how many daemons a run boots; set-up time is
	// their median.
	serveColdStarts = 3
	servePoll       = 5 * time.Millisecond
)

// workerMain is the benchmark binary re-executed as a jobd worker. It
// records its heap counters and peak resident set next to the job's
// files; a traced run also profiles it there.
func workerMain(dir string) int {
	var prof *os.File
	if os.Getenv(workerProfileEnv) != "" {
		f, err := os.Create(filepath.Join(dir, workerCPUFile))
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			return jobd.ExitSetup
		}
		prof = f
	}
	code := jobd.WorkerMain(dir, os.Stderr)
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	b, _ := json.Marshal(workerStats{ms.TotalAlloc, ms.Mallocs, uint64(ms.NumGC), ru.Maxrss,
		ru.Utime.Nano() + ru.Stime.Nano()})
	if err := os.WriteFile(filepath.Join(dir, workerStatsFile), b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
	}
	return code
}

// workerStats is what a worker process reports about itself.
type workerStats struct {
	Alloc    uint64 `json:"alloc"`
	Mallocs  uint64 `json:"mallocs"`
	GCs      uint64 `json:"gcs"`
	MaxRSSKB int64  `json:"max_rss_kb"`
	CPUNs    int64  `json:"cpu_ns"`
}

// serveRef is the in-process run of one job spec: what every verdict
// for the spec must report, and how long the simulation alone takes.
type serveRef struct {
	cycles uint64
	insns  int64
	fnv    uint64
	runS   float64
	fp     uint64
	counts counts
}

// serveSmall drives an in-process jobd.Daemon with one worker from
// two closed-loop clients over Daemon.Handler. Every job is a
// small-scale simulation whose corpus seed comes from the workload
// seed; each verdict must match the in-process run of its spec.
type serveSmall struct {
	o     options
	specs []jobd.Spec
	refs  []serveRef
	exe   string
}

func runServeSmall(o options, tr *tracer) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	seed := uint64(o.seed)
	if seed == 0 {
		seed = 1
	}
	w := &serveSmall{o: o, exe: exe}
	n := serveSpecs
	if o.small {
		n = 1
	}
	out := &outcome{layers: map[string]float64{}}
	model := counts{}
	fp := newFingerprint()
	for j := 0; j < n; j++ {
		spec := jobd.Spec{Scale: "small", Seed: int64(mix(seed, 200+uint64(j))>>33) + 1}
		ref, err := serveReference(spec, filepath.Join(o.out, fmt.Sprintf("serve-ref-%d", os.Getpid())))
		if err != nil {
			return nil, err
		}
		w.specs, w.refs = append(w.specs, spec), append(w.refs, ref)
		out.seeds = append(out.seeds, spec.Seed)
		for p, v := range ref.counts {
			model[p] += v
		}
		fp.word(ref.fp)
	}
	out.fingerprint = fp.h
	out.model = modelMetrics(model, n)

	// Set-up is a cold start: the daemon's construction and start up to
	// the verdict of its first job, which starts the first worker. It is
	// repeated so that set-up time is a median; the last daemon serves
	// the run.
	var d *jobd.Daemon
	var dirs []string
	defer func() {
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}()
	for k := 0; k < serveColdStarts; k++ {
		if d != nil {
			if err := stopDaemon(d); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(o.out, fmt.Sprintf("serve-%d-%d", os.Getpid(), k))
		dirs = append(dirs, dir)
		s := tr.begin("jobd.cold_start", 0)
		cpu := cpuTime()
		d, err = jobd.New(jobd.Config{Dir: dir, WorkerCommand: w.workerCommand, Workers: 1})
		if err != nil {
			return nil, err
		}
		d.Start()
		out.attempted++
		first, err := w.job(d.Handler(), 0, newTracer(false))
		if err != nil {
			out.fail("first job: %v", err)
		}
		s.end()
		out.setup = append(out.setup, (cpuTime()-cpu).Seconds()+first.cpu())
	}
	h := d.Handler()

	win, err := openWindow(o.trace)
	if err != nil {
		stopDaemon(d)
		return nil, err
	}
	cpu := cpuTime()
	var mu sync.Mutex
	var samples []jobSample
	var next int
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(win.start).Seconds() < o.seconds {
				mu.Lock()
				j := next % len(w.specs)
				next++
				out.attempted++
				mu.Unlock()
				s, err := w.job(h, j, tr)
				mu.Lock()
				if err != nil {
					out.fail("job (spec %d): %v", j, err)
				}
				if s.rejected {
					out.layers["jobd.rejects"]++
				}
				if err == nil {
					samples = append(samples, s)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	daemonCPU := (cpuTime() - cpu).Seconds()
	win.close(out)
	if err := stopDaemon(d); err != nil {
		return nil, err
	}

	// Host time is CPU time: each job's worker plus an equal share of
	// this process (daemon and clients) over the window.
	p := pass{dur: time.Duration(daemonCPU * 1e9)}
	var verdict, submit, wait, run, notify, rss []float64
	var attempts int
	for _, s := range samples {
		out.latency = append(out.latency, s.cpu()+daemonCPU/float64(len(samples)))
		verdict = append(verdict, s.latency)
		p.dur += time.Duration(s.worker.CPUNs)
		submit, wait = append(submit, s.submit), append(wait, s.queueWait)
		run, notify = append(run, s.run), append(notify, s.notify)
		attempts += s.attempts
		p.ops++
		p.insns += s.insns
		p.cycles += s.cycles
		if s.profile != nil {
			out.profiles = append(out.profiles, s.profile)
		}
		out.mem.alloc += s.worker.Alloc
		out.mem.mallocs += s.worker.Mallocs
		out.mem.gcs += s.worker.GCs
		rss = append(rss, float64(s.worker.MaxRSSKB)/1024)
	}
	// The median worker's peak, not the largest: a worker's peak moves
	// with when its GC cycles happen to run, and the largest of about
	// fifty such peaks jumps between runs.
	out.rssMB = median(rss)
	out.passes = []pass{p}
	out.windowOps, out.insns = p.ops, p.insns
	var refRun []float64
	for _, r := range w.refs {
		refRun = append(refRun, r.runS)
	}
	out.layers["jobd.verdict_p50_s"] = quantile(verdict, 0.5)
	out.layers["jobd.verdict_p90_s"] = quantile(verdict, 0.9)
	out.layers["jobd.submit_s"] = median(submit)
	out.layers["jobd.queue_wait_s"] = median(wait)
	out.layers["jobd.run_s"] = median(run)
	out.layers["jobd.overhead_s"] = median(run) - median(refRun)
	out.layers["jobd.notify_s"] = median(notify)
	out.layers["jobd.attempts_per_job"] = float64(attempts) / float64(max(len(samples), 1))
	return out, nil
}

// serveReference runs a job spec in this process the way jobd's worker
// does: the small scale's corpus with the spec's seed, on the K8 core
// with the worker's watchdog, under the supervisor with the worker's
// checkpoint cadence. The supervisor restarts from its genesis
// checkpoint, which a plain Machine.Run does not, so only a supervised
// run reproduces a verdict's cycle count.
func serveReference(spec jobd.Spec, dir string) (serveRef, error) {
	cfg := experiments.BenchScale()
	cfg.Corpus = guest.CorpusSpec{NFiles: 2, FileSize: 2048, Seed: spec.Seed, ChangeFraction: 0.3}
	mcfg := core.Config{Core: ooo.K8Config(), NativeCPI: 1, ThreadsPerCore: 1,
		SnapshotCycles: cfg.SnapshotCycles, WatchdogCycles: 10_000_000}
	_, newData := cfg.Corpus.Generate()
	want := cfg.Corpus.ExpectedChecksum(newData)
	defer os.RemoveAll(dir)
	bspec, err := guest.RsyncBenchmark(cfg.Corpus, cfg.TimerPeriod)
	if err != nil {
		return serveRef{}, err
	}
	tree := stats.NewTree()
	bspec.Tree = tree
	img, err := kern.Build(bspec)
	if err != nil {
		return serveRef{}, err
	}
	m := core.NewMachine(img.Domain, tree, mcfg)
	m.SwitchMode(core.ModeSim)
	sup, err := supervisor.New(m, supervisor.Config{Interval: 10_000_000, MaxCycles: cfg.MaxCycles,
		Dir: dir, Keep: 3, MaxRetries: 5})
	if err != nil {
		return serveRef{}, err
	}
	start := time.Now()
	if err := sup.Run(context.Background()); err != nil {
		return serveRef{}, fmt.Errorf("reference run of corpus seed %d: %w", spec.Seed, err)
	}
	wall := time.Since(start)
	m = sup.M
	console := m.Dom.Console()
	if err := checkRsyncConsole(console, want); err != nil {
		return serveRef{}, fmt.Errorf("reference run of corpus seed %d: %w", spec.Seed, err)
	}
	fp := newFingerprint()
	fp.run(m.Cycle, m.Insns(), console, m.Tree)
	ref := serveRef{cycles: m.Cycle, insns: m.Insns(), fnv: fnv64(console), runS: wall.Seconds(),
		fp: fp.h, counts: counts{}}
	ref.counts.add(m.Tree)
	return ref, nil
}

func (w *serveSmall) workerCommand(jobDir string) *exec.Cmd {
	cmd := exec.Command(w.exe)
	cmd.Env = []string{workerEnv + "=" + jobDir}
	if w.o.trace {
		cmd.Env = append(cmd.Env, workerProfileEnv+"=1")
	}
	return cmd
}

// stopDaemon drains the daemon, which waits for every worker to exit,
// and closes its job store.
func stopDaemon(d *jobd.Daemon) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.Drain(ctx)
	if cerr := d.Store().Close(); err == nil {
		err = cerr
	}
	return err
}

// jobSample is one job as its client saw it. Its latency is wall time,
// from submit to the verdict.
type jobSample struct {
	latency, submit, queueWait, run, notify float64
	attempts                                int
	insns, cycles                           int64
	rejected                                bool
	profile                                 []byte
	worker                                  workerStats
}

// cpu is the CPU time of the job's worker process, in seconds.
func (s jobSample) cpu() float64 { return float64(s.worker.CPUNs) / 1e9 }

// job submits spec j, polls until the verdict, and checks it against
// the in-process run of the same spec.
func (w *serveSmall) job(h http.Handler, j int, tr *tracer) (s jobSample, err error) {
	body, err := json.Marshal(w.specs[j])
	if err != nil {
		return s, err
	}
	op := tr.begin("serve-small.job", 0)
	sub := tr.begin("jobd.submit", op.id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
	s.submit = sub.end().Seconds()
	if rec.Code != http.StatusAccepted {
		s.rejected = true
		return s, fmt.Errorf("submit: HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var st jobd.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return s, fmt.Errorf("submit: %w", err)
	}
	for st.State != jobd.StateDone && st.State != jobd.StateFailed {
		time.Sleep(servePoll)
		p := tr.begin("jobd.poll", op.id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+st.ID, nil))
		p.end()
		if rec.Code != http.StatusOK {
			return s, fmt.Errorf("poll %s: HTTP %d", st.ID, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			return s, fmt.Errorf("poll %s: %w", st.ID, err)
		}
	}
	seen := time.Now()
	s.latency = op.end().Seconds()
	ref := w.refs[j]
	if st.State != jobd.StateDone || st.Result == nil {
		return s, fmt.Errorf("job %s ended %s: %s %s", st.ID, st.State, st.Kind, st.Error)
	}
	if r := st.Result; r.ConsoleFNV != ref.fnv || r.Cycles != ref.cycles || r.Insns != ref.insns {
		return s, fmt.Errorf("job %s verdict (fnv %016x, %d cycles, %d insns) differs from the in-process run (fnv %016x, %d cycles, %d insns)",
			st.ID, r.ConsoleFNV, r.Cycles, r.Insns, ref.fnv, ref.cycles, ref.insns)
	}
	s.attempts, s.insns, s.cycles = st.Attempts, st.Result.Insns, int64(st.Result.Cycles)
	times := map[string]time.Time{}
	for name, v := range map[string]string{"submitted": st.SubmittedAt, "started": st.StartedAt, "finished": st.FinishedAt} {
		t, err := time.Parse(time.RFC3339Nano, v)
		if err != nil {
			return s, fmt.Errorf("job %s %s time %q: %w", st.ID, name, v, err)
		}
		times[name] = t
	}
	s.queueWait = times["started"].Sub(times["submitted"]).Seconds()
	s.run = times["finished"].Sub(times["started"]).Seconds()
	s.notify = seen.Sub(times["finished"]).Seconds()
	b, err := os.ReadFile(filepath.Join(st.Dir, workerStatsFile))
	if err == nil {
		err = json.Unmarshal(b, &s.worker)
	}
	if err != nil {
		return s, fmt.Errorf("worker stats: %w", err)
	}
	if tr.on {
		if s.profile, err = os.ReadFile(filepath.Join(st.Dir, workerCPUFile)); err != nil {
			return s, fmt.Errorf("worker profile: %w", err)
		}
	}
	return s, nil
}

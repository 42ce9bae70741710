package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"ptlsim/internal/core"
	"ptlsim/internal/experiments"
	"ptlsim/internal/guest"
	"ptlsim/internal/kern"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
)

// rsyncSeed is the corpus seed of experiments.BenchScale, the run
// behind BenchmarkSimThroughput and the paper's §5 workload.
const rsyncSeed = 20070425

// rsyncOOO is the full-system rsync benchmark on the K8-configured
// out-of-order core, one thread. Each operation builds the guest, the
// kernel image and the machine, then runs the guest to completion.
type rsyncOOO struct {
	cfg     experiments.Config // corpus: input 0's, the seed's own
	mcfg    core.Config
	corpora []guest.CorpusSpec
	want    []uint64 // checksum the guest must print, per input
	// cycles is input 0's simulated cycle count.
	cycles uint64
}

// rsyncInputs is how many corpora a run cycles through: the seed's own
// and others derived from it. A run's work varies by a few percent
// with its corpus, and a median over several corpora varies less with
// the seed than one corpus does.
const rsyncInputs = 4

func newRsyncOOO(o options) (*rsyncOOO, error) {
	cfg := experiments.BenchScale()
	if o.small {
		cfg.Corpus = guest.CorpusSpec{NFiles: 2, FileSize: 2048, ChangeFraction: 0.3}
	}
	cfg.Corpus.Seed = o.seed
	if cfg.Corpus.Seed == 0 {
		cfg.Corpus.Seed = rsyncSeed
	}
	w := &rsyncOOO{
		cfg: cfg,
		mcfg: core.Config{Core: ooo.K8Config(), NativeCPI: 1, ThreadsPerCore: 1,
			SnapshotCycles: cfg.SnapshotCycles},
	}
	for i := 0; i < rsyncInputs; i++ {
		c := cfg.Corpus
		if i > 0 {
			c.Seed = int64(mix(uint64(cfg.Corpus.Seed), uint64(i)) >> 1)
		}
		_, newData := c.Generate()
		w.corpora = append(w.corpora, c)
		w.want = append(w.want, c.ExpectedChecksum(newData))
	}
	return w, nil
}

func (w *rsyncOOO) seeds() []int64 {
	var s []int64
	for _, c := range w.corpora {
		s = append(s, c.Seed)
	}
	return s
}

func (w *rsyncOOO) inputs() int { return len(w.corpora) }
func (w *rsyncOOO) chunk() int  { return 1 }

func (w *rsyncOOO) run(i int, tr *tracer) (r opResult) {
	op := tr.begin("rsync-ooo.op", 0)
	tree := stats.NewTree()
	s := tr.begin("guest.RsyncBenchmark", op.id)
	spec, err := guest.RsyncBenchmark(w.corpora[i], w.cfg.TimerPeriod)
	s.end()
	if err != nil {
		r.err = err
		return r
	}
	spec.Tree = tree
	s = tr.begin("kern.Build", op.id)
	img, err := kern.Build(spec)
	s.end()
	if err != nil {
		r.err = err
		return r
	}
	s = tr.begin("core.NewMachine", op.id)
	m := core.NewMachine(img.Domain, tree, w.mcfg)
	m.SwitchMode(core.ModeSim)
	s.end()
	r.setup = op.end()

	cpu := cpuTime()
	s = tr.begin("Machine.Run", op.id)
	err = m.Run(w.cfg.MaxCycles)
	s.end()
	r.latency = cpuTime() - cpu
	if err != nil {
		r.err = fmt.Errorf("sim run: %w", err)
		return r
	}
	console := img.Domain.Console()
	r.insns, r.cycles = m.Insns(), int64(m.Cycle)
	if i == 0 {
		w.cycles = m.Cycle
	}
	r.err = checkRsyncConsole(console, w.want[i])
	fp := newFingerprint()
	fp.run(m.Cycle, m.Insns(), console, tree)
	r.fp = fp.h
	r.counts = counts{}
	r.counts.add(tree)
	return r
}

// checkRsyncConsole requires the guest's "rsync ok <checksum>" line
// with the checksum of the corpus's new data.
func checkRsyncConsole(console string, want uint64) error {
	f := strings.Fields(console)
	if len(f) >= 3 && f[0] == "rsync" && f[1] == "ok" {
		if got, err := strconv.ParseUint(f[2], 16, 64); err == nil && got == want {
			return nil
		}
	}
	return fmt.Errorf("console %q, want rsync ok %016x", console, want)
}

// k8Error runs the paper's Table 1 comparison on input 0's corpus and
// returns the mean |%diff| of its count rows against the
// K8 reference. It also returns the simulated trial's cycles, which
// must equal the benchmark's own runs of that corpus.
func (w *rsyncOOO) k8Error() (float64, uint64, error) {
	res, err := experiments.RunTable1(w.cfg)
	if err != nil {
		return 0, 0, err
	}
	var sum float64
	var n int
	for _, row := range res.Rows {
		if !row.Percent {
			sum += math.Abs(row.Diff())
			n++
		}
	}
	return sum / float64(n), res.SimCycles, nil
}

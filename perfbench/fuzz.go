package main

import (
	"context"
	"fmt"
	"path/filepath"

	"ptlsim/internal/conformance"
	"ptlsim/internal/conformance/corpus"
	"ptlsim/internal/core"
)

// fuzzDual is the conformance fuzz campaign of make fuzz-soak: each
// sequence runs on the reference seqcore engine and on the audited
// out-of-order core under the commit oracle. An operation is one
// sequence, a one-sequence conformance.RunCampaign whose campaign seed
// comes from the workload seed and the input's index.
type fuzzDual struct {
	seed     uint64
	n        int
	pool     [][]byte
	cfg      conformance.Config
	findings string
	// built collects the simulated machines of the running sequence
	// through the harness's Instrument hook, which only records them.
	built []*core.Machine
	// traced counts the machines traced operations built: one reference
	// machine plus the simulated ones per sequence.
	traced int
}

// fuzzInputs bounds the distinct sequences of a run: more than a
// window reaches, so a run measures a fresh sample of about a thousand
// sequences and its mix of sequence kinds and lengths barely moves
// between seeds. fuzzChunk sequences make up one measured pass.
const fuzzInputs, fuzzChunk = 1 << 20, 64

func newFuzzDual(o options, tr *tracer, out *outcome) (*fuzzDual, error) {
	seed := o.seed
	if seed == 0 {
		seed = 1 // the fuzz-soak campaign seed
	}
	w := &fuzzDual{seed: uint64(seed), n: fuzzInputs, findings: filepath.Join(o.out, "findings")}
	if o.small {
		w.n = 3
	}
	w.cfg.Instrument = func(m *core.Machine) { w.built = append(w.built, m) }
	// Set-up loads the shared seed corpus for the byte-level mutator;
	// it is repeated so set-up time is a median.
	for k := 0; k < setupRepeats; k++ {
		s := tr.begin("corpus.Load", 0)
		pool, err := loadSeedPool()
		out.setup = append(out.setup, s.end().Seconds())
		if err != nil {
			return nil, err
		}
		w.pool = pool
	}
	return w, nil
}

// loadSeedPool reads the decoded programs of the shared seed corpus,
// as the fuzz-soak campaign does.
func loadSeedPool() ([][]byte, error) {
	dir, err := corpus.SeedDir()
	if err != nil {
		return nil, err
	}
	cases, err := corpus.Load(dir)
	if err != nil {
		return nil, err
	}
	var pool [][]byte
	for _, cs := range cases {
		code, err := cs.Code()
		if err != nil {
			return nil, fmt.Errorf("seed corpus %s: %w", cs.Name, err)
		}
		if len(code) > 0 {
			pool = append(pool, code)
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("seed corpus %s is empty", dir)
	}
	return pool, nil
}

func (w *fuzzDual) inputs() int { return w.n }
func (w *fuzzDual) chunk() int  { return min(w.n, fuzzChunk) }

// campaignSeed is input i's campaign seed.
func (w *fuzzDual) campaignSeed(i int) int64 { return int64(mix(w.seed, uint64(i)) >> 1) }

func (w *fuzzDual) run(i int, tr *tracer) (r opResult) {
	w.built = w.built[:0]
	cpu := cpuTime()
	s := tr.begin("conformance.RunCampaign", 0)
	res, err := conformance.RunCampaign(context.Background(), conformance.CampaignConfig{
		Run: w.cfg, Seqs: 1, Seed: w.campaignSeed(i), SeedPool: w.pool, PromoteDir: w.findings,
	})
	s.end()
	r.latency = cpuTime() - cpu
	if err != nil {
		r.err = err
		return r
	}
	if len(res.Findings) > 0 {
		f := res.Findings[0]
		r.err = fmt.Errorf("finding %s (reproducer kept in %v): %s", f.Finding.Kind, res.Promoted, f.Finding.Diag)
	}
	if tr.on {
		w.traced += 1 + len(w.built)
	}
	fp := newFingerprint()
	r.counts = counts{}
	for _, m := range w.built {
		r.insns += m.Insns()
		r.cycles += int64(m.Cycle)
		fp.run(m.Cycle, m.Insns(), m.Dom.Console(), m.Tree)
		r.counts.add(m.Tree)
	}
	r.fp = fp.h
	return r
}

// mix derives independent 64-bit values from a seed (splitmix64).
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

package main

import (
	"fmt"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/mem"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
	"ptlsim/internal/x86"
)

// smtLock runs two SMT threads on one ooo.SMTConfig(2) core, built from
// public APIs the way examples/smt_contention is. Every iteration each
// thread does a LOCK XADD on a shared counter, then a store and a load
// over its private buffer. The buffer is twice the L1D, so stores miss
// and dirty lines are written back.
type smtLock struct {
	iters   int64
	initial [2]uint64 // each thread's first stored value, from the seed
	want    [2]smtThreadResult
}

const (
	smtCodeVA   = 0x400000
	smtSharedVA = 0x600000 // counter at +0, thread t's checksum at +64*(t+1)
	smtBufVA    = 0x800000 // thread t's buffer at +t*smtBufBytes
	smtBufBytes = 64 << 10
	smtCycleCap = 500_000_000
	smtBatch    = 4096 // cycles per traced ooo.Core.Cycle span
	// smtLag is how far the load offset trails the store offset. It is
	// fixed so that the seed changes only the data, not the timing.
	smtLag = smtBufBytes / 2
)

type smtThreadResult struct {
	sum    uint64 // the thread's load checksum
	bufFNV uint64 // FNV-64a of its buffer after the run
}

func newSMTLock(o options) (*smtLock, error) {
	seed := uint64(o.seed)
	w := &smtLock{iters: 12000}
	if o.small {
		w.iters = 300
	}
	for t := range w.initial {
		w.initial[t] = mix(seed, uint64(t))
		w.want[t] = smtExpected(w.initial[t], w.iters)
	}
	return w, nil
}

// smtExpected replays one thread's store/load stream in Go.
func smtExpected(v uint64, iters int64) smtThreadResult {
	buf := make([]uint64, smtBufBytes/8)
	const mask = smtBufBytes - 1
	var st, ld int64 = 0, smtLag
	var sum uint64
	for i := int64(0); i < iters; i++ {
		buf[st/8] = v
		sum += buf[ld/8]
		v = 5*v + 7
		st, ld = (st+64)&mask, (ld+64)&mask
	}
	fp := newFingerprint()
	for _, x := range buf {
		fp.word(x)
	}
	return smtThreadResult{sum: sum, bufFNV: fp.h}
}

// smtProgram is the code both threads run. Per thread, RSI holds the
// buffer base, R9 the first value and R11 the load offset.
func smtProgram(iters int64) ([]byte, error) {
	a := x86.NewAssembler(smtCodeVA)
	a.Mov(x86.R(x86.RDI), x86.I(smtSharedVA))
	a.Mov(x86.R(x86.RCX), x86.I(iters))
	a.Xor(x86.R(x86.R8), x86.R(x86.R8))
	a.Xor(x86.R(x86.R10), x86.R(x86.R10))
	a.While(func() x86.Cond {
		a.Cmp(x86.R(x86.RCX), x86.I(0))
		return x86.CondNE
	}, func() {
		a.Mov(x86.R(x86.RBX), x86.I(1))
		a.LockXadd(x86.M(x86.RDI, 0), x86.R(x86.RBX))
		a.Mov(x86.MIdx(x86.RSI, x86.R8, 1, 0), x86.R(x86.R9))
		a.Add(x86.R(x86.R10), x86.MIdx(x86.RSI, x86.R11, 1, 0))
		a.Lea(x86.R9, x86.MIdx(x86.R9, x86.R9, 4, 7)) // v = 5v + 7
		a.Add(x86.R(x86.R8), x86.I(64))
		a.And(x86.R(x86.R8), x86.I(smtBufBytes-1))
		a.Add(x86.R(x86.R11), x86.I(64))
		a.And(x86.R(x86.R11), x86.I(smtBufBytes-1))
		a.Dec(x86.R(x86.RCX))
	})
	a.Mov(x86.M(x86.RDX, 0), x86.R(x86.R10))
	a.Ptlcall()
	return a.Bytes()
}

// smtSys stops a thread at its PTLCALL and answers nothing else.
type smtSys struct{ stopped [2]bool }

func (s *smtSys) Hypercall(c *vm.Context) uops.Fault { return uops.FaultGP }
func (s *smtSys) Ptlcall(c *vm.Context) {
	s.stopped[c.ID] = true
	c.Running = false
}
func (s *smtSys) ReadTSC(c *vm.Context) uint64    { return 0 }
func (s *smtSys) Cpuid(c *vm.Context)             {}
func (s *smtSys) EventPending(c *vm.Context) bool { return false }

func (w *smtLock) inputs() int { return 1 }
func (w *smtLock) chunk() int  { return 1 }

func (w *smtLock) run(_ int, tr *tracer) (r opResult) {
	op := tr.begin("smt-lock.op", 0)
	s := tr.begin("x86.Assembler", op.id)
	code, err := smtProgram(w.iters)
	s.end()
	if err != nil {
		r.err = err
		return r
	}
	pm := mem.NewPhysMem()
	as := mem.NewAddressSpace(pm)
	flags := mem.PTEWritable | mem.PTEUser
	for _, va := range []uint64{smtCodeVA, smtSharedVA} {
		if err := as.Map(va, pm.AllocPage(), flags); err != nil {
			r.err = err
			return r
		}
	}
	for off := uint64(0); off < 2*smtBufBytes; off += mem.PageSize {
		if err := as.Map(smtBufVA+off, pm.AllocPage(), flags); err != nil {
			r.err = err
			return r
		}
	}
	machine := &vm.Machine{PM: pm}
	var ctxs []*vm.Context
	for t := 0; t < 2; t++ {
		ctx := vm.NewContext(machine, t)
		ctx.CR3 = as.CR3()
		ctx.RIP = smtCodeVA
		ctx.Regs[uops.RegRSI] = smtBufVA + uint64(t)*smtBufBytes
		ctx.Regs[uops.RegRDX] = smtSharedVA + 64*uint64(t+1)
		ctx.Regs[uops.RegR9] = w.initial[t]
		ctx.Regs[uops.RegR11] = smtLag
		ctxs = append(ctxs, ctx)
	}
	if f := ctxs[0].WriteVirtBytes(smtCodeVA, code); f != uops.FaultNone {
		r.err = fmt.Errorf("loading code: fault %v", f)
		return r
	}
	sys := &smtSys{}
	tree := stats.NewTree()
	s = tr.begin("ooo.New", op.id)
	c := ooo.New(0, ooo.SMTConfig(2), ctxs, sys, bbcache.New(1024, tree, "bbcache"), tree, "core0")
	s.end()
	r.setup = op.end()

	cpu := cpuTime()
	run := tr.begin("ooo.Core.Cycle", 0)
	var cycle uint64
	for !(sys.stopped[0] && sys.stopped[1]) && cycle < smtCycleCap && r.err == nil {
		b := tr.begin("ooo.Core.Cycle.batch", run.id)
		for end := cycle + smtBatch; cycle < end && !(sys.stopped[0] && sys.stopped[1]); cycle++ {
			if err := c.Cycle(cycle); err != nil {
				r.err = err
				break
			}
		}
		b.end()
	}
	run.end()
	r.latency = cpuTime() - cpu
	if r.err != nil {
		return r
	}
	r.insns, r.cycles = c.Insns(), int64(cycle)
	r.err = w.check(ctxs[0], sys)
	fp := newFingerprint()
	fp.run(cycle, c.Insns(), "", tree)
	r.fp = fp.h
	r.counts = counts{}
	r.counts.add(tree)
	return r
}

// check requires no lost counter update and, per thread, the load
// checksum and final buffer contents the Go replay predicts.
func (w *smtLock) check(ctx *vm.Context, sys *smtSys) error {
	if !sys.stopped[0] || !sys.stopped[1] {
		return fmt.Errorf("threads did not finish within %d cycles", smtCycleCap)
	}
	var fault uops.Fault
	read := func(va uint64) uint64 {
		v, f := ctx.ReadVirt(va, 8)
		if f != uops.FaultNone {
			fault = f
		}
		return v
	}
	if got := read(smtSharedVA); got != uint64(2*w.iters) {
		return fmt.Errorf("shared counter %d, want %d", got, 2*w.iters)
	}
	for t := 0; t < 2; t++ {
		if got := read(smtSharedVA + 64*uint64(t+1)); got != w.want[t].sum {
			return fmt.Errorf("thread %d load checksum %x, want %x", t, got, w.want[t].sum)
		}
		fp := newFingerprint()
		for off := uint64(0); off < smtBufBytes; off += 8 {
			fp.word(read(smtBufVA + uint64(t)*smtBufBytes + off))
		}
		if fault != uops.FaultNone {
			return fmt.Errorf("reading back thread %d's buffer: fault %v", t, fault)
		}
		if fp.h != w.want[t].bufFNV {
			return fmt.Errorf("thread %d buffer contents differ from the replay", t)
		}
	}
	return nil
}

package ooo

import (
	"testing"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/stats"
	"ptlsim/internal/vm"
	"ptlsim/internal/x86"
)

// warmCore builds a K8 core running an endless loop that calls a
// function doing loads, stores and a data-dependent branch that
// mispredicts about half the time, and runs it until the basic block
// cache, TLBs, caches and predictors are warm. It returns the core and
// the next cycle to run.
func warmCore(tb testing.TB, cfg Config) (*Core, uint64) {
	tb.Helper()
	code := asmProg(tb, func(a *x86.Assembler) {
		body := a.NewLabel()
		a.Mov(x86.R(x86.RDI), x86.I(dataVA))
		a.Mov(x86.R(x86.RAX), x86.I(12345))
		loop := a.Mark()
		a.Call(body)
		a.Jmp(loop)

		a.Bind(body)
		a.Lea(x86.RAX, x86.MIdx(x86.RAX, x86.RAX, 4, 7)) // LCG step
		a.Mov(x86.R(x86.RBX), x86.R(x86.RAX))
		a.Shr(x86.R(x86.RBX), x86.I(17))
		a.And(x86.R(x86.RBX), x86.I(0x1ff8))
		a.Mov(x86.MIdx(x86.RDI, x86.RBX, 1, 0), x86.R(x86.RAX))
		a.Add(x86.R(x86.RDX), x86.MIdx(x86.RDI, x86.RBX, 1, 8))
		a.Test(x86.R(x86.RAX), x86.I(1<<20))
		a.IfThen(x86.CondNE, func() {
			a.Add(x86.R(x86.RSI), x86.M(x86.RDI, 0))
			a.Inc(x86.R(x86.RCX))
		})
		a.Ret()
	})
	g := buildGuest(tb, code, 1)
	tree := stats.NewTree()
	c := New(0, cfg, []*vm.Context{g.newCtx(0)}, g.sys, bbcache.New(4096, tree, "bb"), tree, "ooo")
	var cyc uint64
	for ; cyc < 50_000; cyc++ {
		if err := c.Cycle(cyc); err != nil {
			tb.Fatal(err)
		}
	}
	if c.Insns() == 0 || tree.Lookup("ooo.mispredicts").Value() == 0 {
		tb.Fatalf("warm-up made no progress: %d insns, %d mispredicts",
			c.Insns(), tree.Lookup("ooo.mispredicts").Value())
	}
	return c, cyc
}

// TestCycleNoAllocs asserts that a warmed core simulates without
// touching the heap: fetch, rename, issue, writeback, commit and
// branch recovery all reuse storage allocated in New.
func TestCycleNoAllocs(t *testing.T) {
	c, cyc := warmCore(t, K8Config())
	insns := c.Insns()
	allocs := testing.AllocsPerRun(20, func() {
		for end := cyc + 500; cyc < end; cyc++ {
			if err := c.Cycle(cyc); err != nil {
				t.Fatal(err)
			}
		}
	})
	if c.Insns() == insns {
		t.Fatal("no instructions committed while measuring")
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per 500 cycles, want 0", allocs)
	}
}

// BenchmarkCoreCycle measures one simulated cycle of the warmed K8
// core.
func BenchmarkCoreCycle(b *testing.B) {
	c, cyc := warmCore(b, K8Config())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Cycle(cyc); err != nil {
			b.Fatal(err)
		}
		cyc++
	}
}

// BenchmarkNewCore measures building a core: ROBs, queues, predictors,
// TLBs and the cache hierarchy.
func BenchmarkNewCore(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{{"K8", K8Config()}, {"SMT2", SMTConfig(2)}} {
		b.Run(bc.name, func(b *testing.B) {
			g := buildGuest(b, []byte{0x90}, bc.cfg.MaxThreads)
			ctxs := make([]*vm.Context, bc.cfg.MaxThreads)
			for i := range ctxs {
				ctxs[i] = g.newCtx(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree := stats.NewTree()
				New(0, bc.cfg, ctxs, g.sys, bbcache.New(4096, tree, "bb"), tree, "ooo")
			}
		})
	}
}

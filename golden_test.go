package ptlsim_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/core"
	"ptlsim/internal/experiments"
	"ptlsim/internal/guest"
	"ptlsim/internal/mem"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
	"ptlsim/internal/x86"
)

// golden is a model fingerprint: what a fixed configuration must
// produce, bit for bit, after any change that does not set out to
// change the model. The committed values live in testdata/golden.
type golden struct {
	Cycles     uint64 `json:"cycles"`
	Insns      int64  `json:"insns"`
	ConsoleFNV string `json:"console_fnv"`
	StatsFNV   string `json:"stats_fnv"`
}

func fnv64(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

func newGolden(cycles uint64, insns int64, console string, tree *stats.Tree) golden {
	var dump []byte
	for _, p := range tree.Paths() {
		dump = append(dump, p...)
		dump = append(dump, '=')
		dump = strconv.AppendInt(dump, tree.Lookup(p).Value(), 10)
		dump = append(dump, '\n')
	}
	return golden{Cycles: cycles, Insns: insns, ConsoleFNV: fnv64(console), StatsFNV: fnv64(string(dump))}
}

// TestGoldenFingerprints runs each configuration of the fingerprint
// matrix and compares its cycles, committed instructions, console
// output and full stats tree with the committed values. A mismatch
// prints the new values; updating a file is a deliberate model change
// and belongs in a commit that says so.
func TestGoldenFingerprints(t *testing.T) {
	runs := []struct {
		name string
		run  func(t *testing.T) golden
	}{
		{"rsync-k8", goldenRsyncK8},
		{"smt2-lock", goldenSMTLock},
		{"rsync-default-hoisting", goldenRsyncHoisting},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			got := r.run(t)
			path := filepath.Join("testdata", "golden", r.name+".json")
			var want golden
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, &want)
			}
			if err != nil || got != want {
				js, _ := json.MarshalIndent(got, "", "  ")
				t.Fatalf("%s: fingerprint mismatch (read error: %v)\nwant %+v\ngot  %s", path, err, want, js)
			}
		})
	}
}

// goldenRsync runs the full-system rsync guest on the ooo engine.
func goldenRsync(t *testing.T, cfg experiments.Config, ocfg ooo.Config) golden {
	t.Helper()
	m, console, _, err := experiments.RunSimWith(cfg, core.Config{Core: ocfg, NativeCPI: 1, ThreadsPerCore: 1})
	if err != nil {
		t.Fatal(err)
	}
	return newGolden(m.Cycle, m.Insns(), console, m.Tree)
}

// goldenRsyncK8 is the bench-scale rsync on the K8 core: the paper's §5
// workload and the run behind BenchmarkSimThroughput.
func goldenRsyncK8(t *testing.T) golden {
	return goldenRsync(t, experiments.BenchScale(), ooo.K8Config())
}

// goldenRsyncHoisting is a smaller rsync on the default core, which
// issues loads past unresolved older stores and recovers through
// replay traps.
func goldenRsyncHoisting(t *testing.T) golden {
	cfg := experiments.BenchScale()
	cfg.Corpus = guest.CorpusSpec{NFiles: 2, FileSize: 4096, Seed: 20070425, ChangeFraction: 0.25}
	ocfg := ooo.DefaultConfig()
	ocfg.LoadHoisting = true
	return goldenRsync(t, cfg, ocfg)
}

type goldenSys struct{ stopped [2]bool }

func (s *goldenSys) Hypercall(c *vm.Context) uops.Fault { return uops.FaultGP }
func (s *goldenSys) Ptlcall(c *vm.Context) {
	s.stopped[c.ID] = true
	c.Running = false
}
func (s *goldenSys) ReadTSC(c *vm.Context) uint64    { return 0 }
func (s *goldenSys) Cpuid(c *vm.Context)             {}
func (s *goldenSys) EventPending(c *vm.Context) bool { return false }

// goldenSMTLock runs two SMT threads on one core: each iteration does a
// LOCK XADD on a shared counter, then a store and a load over a private
// buffer twice the L1D, so the interlock, the LSQs and writebacks all
// see traffic.
func goldenSMTLock(t *testing.T) golden {
	const (
		codeVA, sharedVA, bufVA = 0x400000, 0x600000, 0x800000
		bufBytes, iters         = 64 << 10, 3000
	)
	a := x86.NewAssembler(codeVA)
	a.Mov(x86.R(x86.RDI), x86.I(sharedVA))
	a.Mov(x86.R(x86.RCX), x86.I(iters))
	a.Xor(x86.R(x86.R8), x86.R(x86.R8))
	a.Mov(x86.R(x86.R11), x86.I(bufBytes/2))
	a.While(func() x86.Cond {
		a.Cmp(x86.R(x86.RCX), x86.I(0))
		return x86.CondNE
	}, func() {
		a.Mov(x86.R(x86.RBX), x86.I(1))
		a.LockXadd(x86.M(x86.RDI, 0), x86.R(x86.RBX))
		a.Mov(x86.MIdx(x86.RSI, x86.R8, 1, 0), x86.R(x86.RCX))
		a.Add(x86.R(x86.R10), x86.MIdx(x86.RSI, x86.R11, 1, 0))
		a.Add(x86.R(x86.R8), x86.I(64))
		a.And(x86.R(x86.R8), x86.I(bufBytes-1))
		a.Add(x86.R(x86.R11), x86.I(64))
		a.And(x86.R(x86.R11), x86.I(bufBytes-1))
		a.Dec(x86.R(x86.RCX))
	})
	a.Ptlcall()
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	pm := mem.NewPhysMem()
	as := mem.NewAddressSpace(pm)
	flags := mem.PTEWritable | mem.PTEUser
	pages := []uint64{codeVA, sharedVA}
	for off := uint64(0); off < 2*bufBytes; off += mem.PageSize {
		pages = append(pages, bufVA+off)
	}
	for _, va := range pages {
		if err := as.Map(va, pm.AllocPage(), flags); err != nil {
			t.Fatal(err)
		}
	}
	machine := &vm.Machine{PM: pm}
	var ctxs []*vm.Context
	for i := 0; i < 2; i++ {
		ctx := vm.NewContext(machine, i)
		ctx.CR3 = as.CR3()
		ctx.RIP = codeVA
		ctx.Regs[uops.RegRSI] = bufVA + uint64(i)*bufBytes
		ctxs = append(ctxs, ctx)
	}
	if f := ctxs[0].WriteVirtBytes(codeVA, code); f != uops.FaultNone {
		t.Fatalf("loading code: fault %v", f)
	}
	sys := &goldenSys{}
	tree := stats.NewTree()
	c := ooo.New(0, ooo.SMTConfig(2), ctxs, sys, bbcache.New(1024, tree, "bbcache"), tree, "core0")
	var cycle uint64
	for ; !(sys.stopped[0] && sys.stopped[1]); cycle++ {
		if cycle >= 50_000_000 {
			t.Fatal("threads did not finish")
		}
		if err := c.Cycle(cycle); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := ctxs[0].ReadVirt(sharedVA, 8); got != 2*iters {
		t.Fatalf("shared counter %d, want %d", got, 2*iters)
	}
	return newGolden(cycle, c.Insns(), "", tree)
}

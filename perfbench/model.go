package main

import (
	"encoding/binary"
	"hash/fnv"
	"strconv"
	"strings"

	"ptlsim/internal/stats"
)

// counts sums stats-tree counters over the runs of a workload. Every
// workload names its out-of-order core "core0", so the paths line up.
type counts map[string]int64

func (c counts) add(t *stats.Tree) {
	for _, p := range t.Paths() {
		c[p] += t.Lookup(p).Value()
	}
}

func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// modelMetrics derives the model's counts and ratios from counters
// summed over ops operations; counts are reported per operation. They
// depend only on the simulated machine, so any change that only
// speeds up the simulator must leave them bit-identical.
func modelMetrics(c counts, ops int) map[string]float64 {
	per := func(path string) float64 { return float64(c[path]) / float64(max(ops, 1)) }
	modes := c["external.cycles_in_mode.user"] + c["external.cycles_in_mode.kernel"] + c["external.cycles_in_mode.idle"]
	return map[string]float64{
		"core.idle_share":        ratio(c["external.cycles_in_mode.idle"], modes),
		"ooo.ipc":                ratio(c["core0.commit.insns"], c["core0.cycles"]),
		"ooo.uops_per_insn":      ratio(c["core0.commit.uops"], c["core0.commit.insns"]),
		"ooo.replays_per_uop":    ratio(c["core0.replays"], c["core0.commit.uops"]),
		"ooo.flushes":            per("core0.pipeline_flushes"),
		"ooo.stall_iq_full":      per("core0.stall.iq_full"),
		"ooo.stall_rob_full":     per("core0.stall.rob_full"),
		"ooo.lock_replays":       per("core0.lock_replays"),
		"cache.l1d_miss_ratio":   ratio(c["core0.cache.l1d.misses"], c["core0.cache.l1d.accesses"]),
		"cache.l2_miss_ratio":    ratio(c["core0.cache.l2.misses"], c["core0.cache.l2.accesses"]),
		"cache.bank_replays":     per("core0.bank_replays"),
		"cache.writebacks":       per("core0.cache.writebacks"),
		"tlb.dtlb_misses":        per("core0.dtlb.misses"),
		"tlb.pagewalks":          per("core0.pagewalks"),
		"bpred.mispredict_ratio": ratio(c["core0.mispredicts"], c["core0.branches"]),
		"bbcache.hit_ratio":      ratio(c["bbcache.hits"], c["bbcache.hits"]+c["bbcache.misses"]),
		"ooo.cycles":             per("core0.cycles"),
	}
}

// fingerprint hashes what a simulated run produced: its cycle and
// instruction counts, its console output, and every stats-tree
// counter in sorted path order. Two runs of one commit on one input
// must hash the same.
type fingerprint struct{ h uint64 }

func newFingerprint() fingerprint { return fingerprint{h: 14695981039346656037} }

func (f *fingerprint) word(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.bytes(b[:])
}

func (f *fingerprint) bytes(b []byte) {
	for _, c := range b {
		f.h ^= uint64(c)
		f.h *= 1099511628211
	}
}

func (f *fingerprint) run(cycles uint64, insns int64, console string, tree *stats.Tree) {
	f.word(cycles)
	f.word(uint64(insns))
	f.word(fnv64(console))
	if tree != nil {
		f.word(treeFNV(tree))
	}
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// treeFNV is the FNV-64a of the tree's "path=value" lines in sorted
// path order.
func treeFNV(t *stats.Tree) uint64 {
	var sb strings.Builder
	for _, p := range t.Paths() {
		sb.WriteString(p)
		sb.WriteByte('=')
		sb.WriteString(strconv.FormatInt(t.Lookup(p).Value(), 10))
		sb.WriteByte('\n')
	}
	return fnv64(sb.String())
}

// Package tlb models translation lookaside buffers: the single-level
// TLBs used by the simulated core (the paper's PTLsim models a 32-entry
// L1 DTLB/ITLB), and the richer two-level hierarchy with a PDE cache
// found in real K8 silicon (32 L1 entries, 1024 L2 entries 4-way, and a
// 24-entry page directory entry cache) — the difference behind the
// DTLB-miss gap in Table 1.
package tlb

import "fmt"

// CheckGeometry validates a TLB geometry (total entries and
// associativity) without constructing it. Core configurations call
// this from their Validate methods so a bad CLI flag produces a usable
// error message instead of a stack trace.
func CheckGeometry(entries, assoc int) error {
	if entries <= 0 {
		return fmt.Errorf("tlb: entry count %d must be positive", entries)
	}
	if assoc <= 0 {
		return fmt.Errorf("tlb: associativity %d must be positive", assoc)
	}
	if entries%assoc != 0 {
		return fmt.Errorf("tlb: %d entries not a multiple of associativity %d", entries, assoc)
	}
	nsets := entries / assoc
	if nsets&(nsets-1) != 0 {
		return fmt.Errorf("tlb: set count %d (entries %d / assoc %d) must be a power of two",
			nsets, entries, assoc)
	}
	return nil
}

// ceilPow2 rounds n up to the next power of two (n >= 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Entry is one TLB entry: a virtual page number mapped to a machine
// frame number with its leaf PTE permission bits.
type Entry struct {
	VPN   uint64
	MFN   uint64
	Flags uint64 // leaf PTE flag bits (present/writable/user/NX/dirty)
}

type way struct {
	entry Entry
	valid bool
	lru   uint64 // last-use stamp
}

// TLB is a set-associative TLB with true-LRU replacement. The sets
// are consecutive runs of assoc ways in one backing array.
type TLB struct {
	ways    []way
	assoc   int
	setMask uint64
	stamp   uint64
}

// New creates a TLB with the given total entry count and associativity.
// Ill-formed geometries (see CheckGeometry) are rounded up to the next
// power-of-two set count rather than rejected here; configurations
// that pass Validate never trigger the rounding.
func New(entries, assoc int) *TLB {
	if assoc <= 0 {
		assoc = 1
	}
	nsets := entries / assoc
	if nsets <= 0 {
		nsets = 1
	}
	nsets = ceilPow2(nsets)
	return &TLB{ways: make([]way, nsets*assoc), assoc: assoc, setMask: uint64(nsets - 1)}
}

// set returns the ways of the set vpn maps to.
func (t *TLB) set(vpn uint64) []way {
	base := int(vpn&t.setMask) * t.assoc
	return t.ways[base : base+t.assoc : base+t.assoc]
}

// Lookup probes the TLB for vpn, updating LRU state on a hit.
func (t *TLB) Lookup(vpn uint64) (Entry, bool) {
	set := t.set(vpn)
	for i := range set {
		if set[i].valid && set[i].entry.VPN == vpn {
			t.stamp++
			set[i].lru = t.stamp
			return set[i].entry, true
		}
	}
	return Entry{}, false
}

// Insert fills the TLB with e, evicting the LRU way of its set. If the
// VPN is already present its entry is refreshed in place.
func (t *TLB) Insert(e Entry) {
	set := t.set(e.VPN)
	t.stamp++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].entry.VPN == e.VPN {
			set[i].entry = e
			set[i].lru = t.stamp
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = way{entry: e, valid: true, lru: t.stamp}
}

// Flush invalidates every entry (CR3 reload semantics; no global pages
// or ASIDs are modeled, matching the paper's configuration).
func (t *TLB) Flush() {
	for i := range t.ways {
		t.ways[i].valid = false
	}
}

// FlushPage invalidates the entry for vpn if present (invlpg).
func (t *TLB) FlushPage(vpn uint64) {
	set := t.set(vpn)
	for i := range set {
		if set[i].valid && set[i].entry.VPN == vpn {
			set[i].valid = false
		}
	}
}

// Size returns the total number of entries.
func (t *TLB) Size() int { return len(t.ways) }

// HierarchyResult reports which level of a two-level TLB hierarchy
// satisfied a lookup.
type HierarchyResult uint8

// Hierarchy lookup outcomes.
const (
	HitL1 HierarchyResult = iota
	HitL2
	Miss
)

// Hierarchy is a two-level TLB with an optional PDE cache, modeling the
// K8's translation machinery. A PDE-cache hit shortens the page walk
// from four loads to one (only the final PT level must be read).
type Hierarchy struct {
	L1  *TLB
	L2  *TLB // may be nil for a single-level configuration
	PDE *TLB // page-directory-entry cache keyed by vpn>>9; may be nil
}

// NewHierarchy builds a two-level hierarchy. l2Entries or pdeEntries of
// zero disable that structure.
func NewHierarchy(l1Entries, l1Assoc, l2Entries, l2Assoc, pdeEntries int) *Hierarchy {
	h := &Hierarchy{L1: New(l1Entries, l1Assoc)}
	if l2Entries > 0 {
		h.L2 = New(l2Entries, l2Assoc)
	}
	if pdeEntries > 0 {
		h.PDE = New(pdeEntries, pdeEntries) // fully associative
	}
	return h
}

// Lookup probes L1 then L2; an L2 hit is promoted into L1.
func (h *Hierarchy) Lookup(vpn uint64) (Entry, HierarchyResult) {
	if e, ok := h.L1.Lookup(vpn); ok {
		return e, HitL1
	}
	if h.L2 != nil {
		if e, ok := h.L2.Lookup(vpn); ok {
			h.L1.Insert(e)
			return e, HitL2
		}
	}
	return Entry{}, Miss
}

// Insert fills both levels after a walk, and records the PDE covering
// the page in the PDE cache.
func (h *Hierarchy) Insert(e Entry) {
	h.L1.Insert(e)
	if h.L2 != nil {
		h.L2.Insert(e)
	}
	if h.PDE != nil {
		h.PDE.Insert(Entry{VPN: e.VPN >> 9})
	}
}

// PDEHit reports whether a walk for vpn could be shortened by the PDE
// cache (the page's directory entry is cached).
func (h *Hierarchy) PDEHit(vpn uint64) bool {
	if h.PDE == nil {
		return false
	}
	_, ok := h.PDE.Lookup(vpn >> 9)
	return ok
}

// Flush invalidates all levels.
func (h *Hierarchy) Flush() {
	h.L1.Flush()
	if h.L2 != nil {
		h.L2.Flush()
	}
	if h.PDE != nil {
		h.PDE.Flush()
	}
}

// FlushPage invalidates one page in all levels.
func (h *Hierarchy) FlushPage(vpn uint64) {
	h.L1.FlushPage(vpn)
	if h.L2 != nil {
		h.L2.FlushPage(vpn)
	}
}

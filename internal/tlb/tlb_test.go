package tlb

import (
	"math/rand"
	"testing"
)

func TestLookupMissThenHit(t *testing.T) {
	tl := New(32, 4)
	if _, ok := tl.Lookup(5); ok {
		t.Fatal("empty TLB should miss")
	}
	tl.Insert(Entry{VPN: 5, MFN: 0x42, Flags: 3})
	e, ok := tl.Lookup(5)
	if !ok || e.MFN != 0x42 || e.Flags != 3 {
		t.Fatalf("hit = %v %+v", ok, e)
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	tl := New(8, 2)
	tl.Insert(Entry{VPN: 1, MFN: 10})
	tl.Insert(Entry{VPN: 1, MFN: 20})
	e, ok := tl.Lookup(1)
	if !ok || e.MFN != 20 {
		t.Fatalf("refresh failed: %v %+v", ok, e)
	}
	// Must not occupy two ways: fill the rest of the set and confirm
	// capacity behaves as 2-way.
	tl.Insert(Entry{VPN: 9, MFN: 30}) // same set as 1 (8/2 = 4 sets)
	if _, ok := tl.Lookup(1); !ok {
		t.Fatal("vpn 1 evicted too early")
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := New(4, 4) // one set, 4 ways
	for vpn := uint64(0); vpn < 4; vpn++ {
		tl.Insert(Entry{VPN: vpn * 4}) // all map to set 0
	}
	// Touch 0, 4, 8 so 12 is LRU.
	tl.Lookup(0)
	tl.Lookup(4)
	tl.Lookup(8)
	tl.Insert(Entry{VPN: 100})
	if _, ok := tl.Lookup(12); ok {
		t.Fatal("LRU entry 12 should have been evicted")
	}
	for _, vpn := range []uint64{0, 4, 8, 100} {
		if _, ok := tl.Lookup(vpn); !ok {
			t.Fatalf("vpn %d should still be resident", vpn)
		}
	}
}

// Property: LRU stack property — with a single set, after any access
// sequence the resident entries are exactly the assoc most recently
// used distinct VPNs.
func TestLRUStackProperty(t *testing.T) {
	const assoc = 4
	tl := New(assoc, assoc)
	r := rand.New(rand.NewSource(11))
	var trace []uint64
	for i := 0; i < 5000; i++ {
		vpn := uint64(r.Intn(12))
		trace = append(trace, vpn)
		if _, ok := tl.Lookup(vpn); !ok {
			tl.Insert(Entry{VPN: vpn})
		}
		// Compute the expected resident set from the trace suffix.
		seen := map[uint64]bool{}
		var mru []uint64
		for j := len(trace) - 1; j >= 0 && len(mru) < assoc; j-- {
			if !seen[trace[j]] {
				seen[trace[j]] = true
				mru = append(mru, trace[j])
			}
		}
		for _, want := range mru {
			probe := New(1, 1) // do not disturb LRU in tl; peek manually
			_ = probe
			found := false
			for _, w := range tl.set(0) {
				if w.valid && w.entry.VPN == want {
					found = true
				}
			}
			if !found {
				t.Fatalf("step %d: vpn %d should be resident (MRU set %v)", i, want, mru)
			}
		}
	}
}

func TestFlush(t *testing.T) {
	tl := New(16, 4)
	for vpn := uint64(0); vpn < 16; vpn++ {
		tl.Insert(Entry{VPN: vpn})
	}
	tl.Flush()
	for vpn := uint64(0); vpn < 16; vpn++ {
		if _, ok := tl.Lookup(vpn); ok {
			t.Fatalf("vpn %d survived flush", vpn)
		}
	}
}

func TestFlushPage(t *testing.T) {
	tl := New(16, 4)
	tl.Insert(Entry{VPN: 3})
	tl.Insert(Entry{VPN: 7})
	tl.FlushPage(3)
	if _, ok := tl.Lookup(3); ok {
		t.Fatal("vpn 3 should be flushed")
	}
	if _, ok := tl.Lookup(7); !ok {
		t.Fatal("vpn 7 should survive")
	}
}

func TestHierarchyPromotion(t *testing.T) {
	h := NewHierarchy(4, 4, 64, 4, 24)
	h.Insert(Entry{VPN: 1, MFN: 11})
	// Evict vpn 1 from tiny L1 by filling it.
	for vpn := uint64(100); vpn < 104; vpn++ {
		h.Insert(Entry{VPN: vpn})
	}
	e, res := h.Lookup(1)
	if res != HitL2 || e.MFN != 11 {
		t.Fatalf("expected L2 hit, got %v %+v", res, e)
	}
	// Promoted: next lookup hits L1.
	if _, res = h.Lookup(1); res != HitL1 {
		t.Fatalf("expected L1 hit after promotion, got %v", res)
	}
}

func TestHierarchyMiss(t *testing.T) {
	h := NewHierarchy(4, 4, 64, 4, 24)
	if _, res := h.Lookup(42); res != Miss {
		t.Fatalf("expected miss, got %v", res)
	}
}

func TestPDECache(t *testing.T) {
	h := NewHierarchy(4, 4, 64, 4, 24)
	h.Insert(Entry{VPN: 0x1000})
	if !h.PDEHit(0x1000) {
		t.Fatal("PDE of inserted page should be cached")
	}
	// Neighboring page under the same PDE (same vpn>>9) also hits.
	if !h.PDEHit(0x1001) {
		t.Fatal("sibling page under same PDE should hit")
	}
	if h.PDEHit(0x2000000) {
		t.Fatal("unrelated PDE should miss")
	}
	// Single-level hierarchy: PDE always misses.
	solo := NewHierarchy(32, 32, 0, 0, 0)
	solo.Insert(Entry{VPN: 5})
	if solo.PDEHit(5) {
		t.Fatal("no PDE cache configured")
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := NewHierarchy(4, 4, 64, 4, 24)
	h.Insert(Entry{VPN: 9})
	h.Flush()
	if _, res := h.Lookup(9); res != Miss {
		t.Fatal("flush must clear both levels")
	}
	h.Insert(Entry{VPN: 9})
	h.FlushPage(9)
	if _, res := h.Lookup(9); res != Miss {
		t.Fatal("page flush must clear both levels")
	}
}

func TestBadGeometryRejected(t *testing.T) {
	if err := CheckGeometry(12, 4); err == nil { // 3 sets
		t.Fatal("non-power-of-two set count must fail validation")
	}
	if err := CheckGeometry(0, 1); err == nil {
		t.Fatal("zero entries must fail validation")
	}
	if err := CheckGeometry(13, 4); err == nil {
		t.Fatal("entries not a multiple of assoc must fail validation")
	}
	if err := CheckGeometry(32, 4); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	// The constructor itself no longer panics: ill-formed geometries
	// round up so a sick config cannot take down a batch process.
	tl := New(12, 4)
	if tl.Size() != 16 { // 4 sets x 4 ways after rounding
		t.Fatalf("rounded size = %d, want 16", tl.Size())
	}
}

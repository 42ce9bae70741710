package ooo

import (
	"ptlsim/internal/bbcache"
	"ptlsim/internal/decode"
	"ptlsim/internal/evlog"
	"ptlsim/internal/mem"
	"ptlsim/internal/tlb"
	"ptlsim/internal/uops"
)

// itlbTranslate translates a fetch address through the ITLB, running
// the page walker on a miss. It returns the physical address and the
// cycle at which the translation is available.
func (c *Core) itlbTranslate(th *thread, va uint64) (pa uint64, ready uint64, fault uops.Fault) {
	vpn := va >> mem.PageShift
	if e, ok := th.itlb.Lookup(vpn); ok {
		return e.MFN<<mem.PageShift | va&mem.PageMask, c.now, uops.FaultNone
	}
	c.cITLBMiss.Inc()
	w, ready := c.pageWalk(th, va, mem.Access{Exec: true, User: !th.ctx.Kernel, SetAD: true})
	if w.Fault != uops.FaultNone {
		th.ctx.CR2 = va
		return 0, ready, w.Fault
	}
	th.itlb.Insert(tlb.Entry{VPN: vpn, MFN: w.MFN, Flags: w.PTE})
	return w.PhysAddr(va), ready, uops.FaultNone
}

// pageWalk performs the hardware page table walk, modeling each PTE
// read as a dependent load through the data cache hierarchy — page
// tables compete with user data for cache lines, which is why TLB miss
// latency is not a constant (paper §4.3).
func (c *Core) pageWalk(th *thread, va uint64, acc mem.Access) (mem.WalkResult, uint64) {
	c.cWalks.Inc()
	w := mem.Walk(th.ctx.M.PM, th.ctx.CR3, va, acc)
	ready := c.now
	for i := 0; i < w.Depth; i++ {
		r := c.hier.Load(w.PTEAddrs[i], ready)
		ready = r.Ready
	}
	return w, ready
}

// fetch brings predicted uops from the basic block cache into each
// thread's fetch queue, up to FetchWidth per cycle shared round-robin
// across SMT threads.
func (c *Core) fetch() {
	budget := c.cfg.FetchWidth
	for i := 0; i < len(c.threads) && budget > 0; i++ {
		th := c.threads[(int(c.now)+i)%len(c.threads)]
		budget = c.fetchThread(th, budget)
	}
}

func (c *Core) fetchThread(th *thread, budget int) int {
	if !th.ctx.Running || th.fetchFault != uops.FaultNone {
		return budget
	}
	if c.now < th.fetchStallUntil {
		return budget
	}
	for budget > 0 {
		if th.fqCount == len(th.fetchQ) {
			return budget
		}
		if th.curBB == nil {
			if !c.openBB(th) {
				return budget
			}
			if c.now < th.fetchStallUntil {
				return budget
			}
		}
		bb := th.curBB
		slot := wrap(th.fqHead+th.fqCount, len(th.fetchQ))
		f := &th.fetchQ[slot]
		f.uop = bb.Uops[th.bbIdx]
		u := &f.uop
		f.fetchCycle = 0
		if c.ev != nil {
			f.fetchCycle = c.now
		}
		c.predictBranch(th, f, th.fetchRASAt(slot))
		th.fqCount++
		budget--

		if u.IsBranch() {
			// A REP entry check predicted not-taken falls through to
			// the iteration body within the same basic block.
			if th.bbIdx+1 < len(bb.Uops) && f.predTarget == bb.Uops[th.bbIdx+1].RIP {
				th.bbIdx++
				continue
			}
			th.curBB = nil
			th.fetchRIP = f.predTarget
			// Redirecting fetch to a taken target costs a bubble.
			if f.predTarget != u.RIPNot {
				th.fetchStallUntil = c.now + 1
			}
			continue
		}

		th.bbIdx++
		if th.bbIdx >= len(bb.Uops) {
			th.curBB = nil
			th.fetchRIP = bb.FallThrough()
		}
	}
	return budget
}

// predictBranch fills in the fetch-time prediction of the uop in f,
// consulting the branch predictors if it is a branch. A call or return
// checkpoints the RAS into ras, the storage of f's fetch queue slot.
func (c *Core) predictBranch(th *thread, f *fetched, ras []uint64) {
	u := &f.uop
	f.predTarget, f.predSnapshot, f.rasTop, f.hasRASSnap = 0, 0, 0, false
	if !u.IsBranch() {
		return
	}
	next := u.RIP + uint64(u.X86Len)
	f.predTarget = next
	switch u.Branch {
	case uops.BranchCond:
		taken, snap := th.pred.PredictDirection(u.RIP)
		f.predSnapshot = snap
		f.predTarget = u.RIPNot
		if taken {
			f.predTarget = u.RIPTaken
		}
	case uops.BranchUncond:
		f.predTarget = u.RIPTaken
	case uops.BranchCall:
		f.rasTop, f.hasRASSnap = th.pred.RAS().Save(ras), true
		th.pred.RAS().Push(next)
		if u.Op != uops.OpBrInd {
			f.predTarget = u.RIPTaken
		} else if t, ok := th.pred.BTBLookup(u.RIP); ok {
			f.predTarget = t
		} // else no target known: predict poorly
	case uops.BranchRet:
		f.rasTop, f.hasRASSnap = th.pred.RAS().Save(ras), true
		f.predTarget = th.pred.RAS().Pop()
	case uops.BranchIndirect:
		if t, ok := th.pred.BTBLookup(u.RIP); ok {
			f.predTarget = t
		}
	}
}

// openBB locates (or builds) the basic block at the thread's fetch RIP
// and charges the I-cache access.
func (c *Core) openBB(th *thread) bool {
	// TLB shootdown check: a CR3 reload performed outside this core
	// (a hypercall executed in native mode, or another engine) must
	// invalidate this thread's TLBs before any new translation is used.
	if th.flushGen != th.ctx.FlushGen {
		th.flushGen = th.ctx.FlushGen
		th.dtlb.Flush()
		th.itlb.Flush()
	}
	pa, ready, fault := c.itlbTranslate(th, th.fetchRIP)
	if fault != uops.FaultNone {
		dbgf("openBB itlb fault %v at %#x (cycle %d, kernel=%v cr3=%#x)", fault, th.fetchRIP, c.now, th.ctx.Kernel, th.ctx.CR3)
		th.fetchFault = fault
		return false
	}
	if ready > c.now {
		th.fetchStallUntil = ready
		return false
	}
	r := c.hier.Fetch(pa, c.now)
	if r.Ready > c.now {
		th.fetchStallUntil = r.Ready
	}
	key := bbcache.Key{RIP: th.fetchRIP, MFN: pa >> mem.PageShift, Kernel: th.ctx.Kernel}
	bb, ok := c.bbc.Lookup(key)
	if !ok {
		var f uops.Fault
		bb, f = decode.BuildBB(th.ctx.FetchCode, th.fetchRIP)
		if f != uops.FaultNone {
			w := mem.Walk(th.ctx.M.PM, th.ctx.CR3, th.fetchRIP, mem.Access{Exec: true, User: !th.ctx.Kernel})
			var ptes [4]uint64
			for i := 0; i < w.Depth; i++ {
				ptes[i], _ = th.ctx.M.PM.Read(w.PTEAddrs[i], 8)
			}
			dbgf("openBB build fault %v at %#x (cycle %d kernel=%v cr3=%#x walk depth=%d fault=%v addrs=%x ptes=%x)",
				f, th.fetchRIP, c.now, th.ctx.Kernel, th.ctx.CR3, w.Depth, w.Fault, w.PTEAddrs, ptes)
			th.fetchFault = f
			return false
		}
		if endPA, ef := th.ctx.Translate(th.fetchRIP+bb.X86Len-1, false, true); ef == uops.FaultNone {
			if endMFN := endPA >> mem.PageShift; endMFN != key.MFN {
				key.MFN2 = endMFN
			}
		}
		c.bbc.Insert(key, bb)
	}
	th.curBB = bb
	th.bbIdx = 0
	return true
}

// rename moves uops from fetch queues into the backend: ROB slot,
// physical registers, an issue queue slot, and LDQ/STQ slots for
// memory operations. In-order; stalls on any structural shortage.
func (c *Core) rename() {
	budget := c.cfg.RenameWidth
	for i := 0; i < len(c.threads) && budget > 0; i++ {
		th := c.threads[(int(c.now)+i)%len(c.threads)]
		budget = c.renameThread(th, budget)
	}
}

func (c *Core) renameThread(th *thread, budget int) int {
	for budget > 0 && th.fqCount > 0 {
		if th.robCount >= len(th.rob) {
			c.cFetchStallROB.Inc()
			return budget
		}
		fslot := th.fqHead
		f := &th.fetchQ[fslot]
		u := &f.uop

		cl := c.pickCluster(u)
		if cl < 0 {
			c.cFetchStallIQ.Inc()
			return budget
		}
		if u.IsLoad() && len(th.ldq) >= c.cfg.LDQSize {
			return budget
		}
		if u.IsStore() && len(th.stq) >= c.cfg.STQSize {
			return budget
		}

		// Allocate rename resources; roll back on shortage.
		rd, fl := -1, -1
		if u.Rd != uops.RegZero {
			rd = c.allocPhys(0, false)
			if rd == -2 {
				return budget
			}
		}
		if u.SetFlags != 0 {
			fl = c.allocPhys(0, false)
			if fl == -2 {
				c.freePhys(rd)
				return budget
			}
		}

		// The slot is only reused by fetch, which runs after rename, so
		// f stays readable for the rest of this iteration.
		th.fqHead = wrap(th.fqHead+1, len(th.fetchQ))
		th.fqCount--
		c.seq++
		slot := wrap(th.robHead+th.robCount, len(th.rob))
		th.robCount++
		e := &th.rob[slot]
		// Field by field, so the uop is copied once and straight into
		// the slot.
		*e = robEntry{}
		e.valid, e.uop, e.seq = true, *u, c.seq
		e.rdPhys, e.rdOld, e.flPhys, e.flOld = rd, -1, fl, -1
		e.src = [3]int{c.srcPhys(th, u.Ra), c.srcPhysB(th, u), c.srcPhys(th, u.Rc)}
		e.state = stateWaiting
		e.cluster = cl
		e.predTarget, e.predSnapshot = f.predTarget, f.predSnapshot
		e.rasTop, e.hasRASSnap = f.rasTop, f.hasRASSnap
		if f.hasRASSnap {
			copy(th.robRASAt(slot), th.fetchRASAt(fslot))
		}
		if rd >= 0 {
			e.rdOld = th.rat[u.Rd]
			th.rat[u.Rd] = rd
		}
		if fl >= 0 {
			e.flOld = th.rat[uops.RegFlags]
			th.rat[uops.RegFlags] = fl
		}
		if u.IsLoad() {
			th.ldq = append(th.ldq, slot)
		}
		if u.IsStore() {
			th.stq = append(th.stq, slot)
		}
		if e.isAssist() {
			// Assists execute at commit; mark complete immediately.
			e.state = stateDone
		} else {
			c.iqs[cl] = append(c.iqs[cl], iqEntry{thread: th.id, rob: slot, seq: e.seq})
		}
		if c.ev != nil {
			// The fetch event is emitted retroactively now that the uop
			// has its sequence number; its cycle is the true fetch cycle.
			op := uint16(u.Op)
			c.ev.Record(evlog.Event{Cycle: f.fetchCycle, Seq: e.seq, RIP: u.RIP,
				Op: op, Stage: evlog.StageFetch, Core: uint8(c.ID), Thread: uint8(th.id)})
			c.ev.Record(evlog.Event{Cycle: c.now, Seq: e.seq, RIP: u.RIP,
				Op: op, Stage: evlog.StageRename, Core: uint8(c.ID), Thread: uint8(th.id)})
			if !e.isAssist() {
				c.ev.Record(evlog.Event{Cycle: c.now, Seq: e.seq, RIP: u.RIP,
					Arg: uint64(cl), Op: op, Stage: evlog.StageDispatch,
					Core: uint8(c.ID), Thread: uint8(th.id)})
			}
		}
		budget--
	}
	return budget
}

// srcPhys resolves an architectural source to its physical register
// (-1 for the zero register, which is always ready).
func (c *Core) srcPhys(th *thread, r uops.ArchReg) int {
	if r == uops.RegZero {
		return -1
	}
	return th.rat[r]
}

func (c *Core) srcPhysB(th *thread, u *uops.Uop) int {
	if u.BImm {
		return -1
	}
	return c.srcPhys(th, u.Rb)
}

// pickCluster selects the issue queue for a uop: among clusters that
// can execute its class, the one with the most free entries (PTLsim's
// load-balancing cluster selection). Returns -1 if all are full.
func (c *Core) pickCluster(u *uops.Uop) int {
	cl := classOf(u)
	best, bestFree := -1, 0
	for i, cc := range c.cfg.Clusters {
		if !cc.Classes.Has(cl) {
			continue
		}
		free := cc.IQSize - len(c.iqs[i])
		if free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// classOf buckets a uop into an op class.
func classOf(u *uops.Uop) OpClass {
	switch {
	case u.IsLoad():
		return ClassLoad
	case u.IsStore():
		return ClassStore
	case u.IsBranch():
		return ClassBranch
	}
	switch u.Op {
	case uops.OpMull, uops.OpMulh, uops.OpMulhu:
		return ClassMul
	case uops.OpDiv, uops.OpRem, uops.OpDivs, uops.OpRems:
		return ClassDiv
	case uops.OpFAdd, uops.OpFSub, uops.OpFMul, uops.OpFCmp,
		uops.OpFCvtID, uops.OpFCvtDI:
		return ClassFP
	case uops.OpFDiv:
		return ClassFDiv
	default:
		return ClassALU
	}
}

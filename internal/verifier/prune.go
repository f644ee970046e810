package verifier

import (
	"sync"
	"sync/atomic"

	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// maxExploredPerInsn caps the explored-state list per instruction; beyond
// it we stop recording (still analyzing, just without pruning benefit),
// bounding memory like the kernel's state-list heuristics.
const maxExploredPerInsn = 64

// exploredEntry is one recorded state in the compact form subsumption
// needs, plus the DFS-order coordinate of the walk that recorded it; the
// coordinate restricts pruning visibility under parallel exploration
// (see parallel.go). dead is set when a later path-conditional
// refinement retracts the entry (retractEntries): its "explored without
// error" claim then holds only under branch constraints a pruned state
// need not share. pathNode.entry points at dead, so it stays valid until
// Verify returns and the entry goes back to entryPool.
//
// Only the zero and spill slots of the stack are kept: an invalid or
// misc slot in the old state subsumes whatever the new state holds
// there. links hold the recorded state's ID linkage (see subsumes).
type exploredEntry struct {
	dead     atomic.Bool
	pktRange uint32
	order    *pathOrder
	regs     [ebpf.MaxReg]RegState
	slots    []exploredSlot
	links    []idLink
}

// exploredSlot is one zero or spill slot of a recorded state.
type exploredSlot struct {
	idx  uint8 // frame slot index
	slot StackSlot
}

// idLink ties a register or spill of a recorded state that carries a
// non-zero ID to the first such position with the same ID. Positions
// below ebpf.MaxReg are registers; ebpf.MaxReg+i is the spill in frame
// slot i.
type idLink struct {
	id         uint32 // the recorded ID; read only while recording
	pos, first uint8
}

// entryPool recycles pruning-table entries, with their slot and link
// arrays, across verifications.
var entryPool = sync.Pool{New: func() any { return new(exploredEntry) }}

// newExploredEntry records st in compact form.
func newExploredEntry(st *VState, order *pathOrder) *exploredEntry {
	e := entryPool.Get().(*exploredEntry)
	e.dead.Store(false)
	e.pktRange = st.PktRange
	e.order = order
	e.regs = st.Regs
	e.slots = e.slots[:0]
	e.links = e.links[:0]
	for i := range e.regs {
		e.link(i, &e.regs[i])
	}
	for j := len(st.stack) - 1; j >= 0; j-- {
		sl := &st.stack[j]
		if sl.Kind != SlotZero && sl.Kind != SlotSpill {
			continue
		}
		i := NumStackSlots - 1 - j
		e.slots = append(e.slots, exploredSlot{idx: uint8(i), slot: *sl})
		if sl.Kind == SlotSpill {
			e.link(ebpf.MaxReg+i, &sl.Spill)
		}
	}
	return e
}

// link records the ID linkage of the register or spill r at pos. An old
// NotInit value is never compared, so its ID does not count.
func (e *exploredEntry) link(pos int, r *RegState) {
	if r.Type == NotInit || r.ID == 0 {
		return
	}
	first := uint8(pos)
	for _, l := range e.links {
		if l.id == r.ID {
			first = l.first
			break
		}
	}
	e.links = append(e.links, idLink{id: r.ID, pos: uint8(pos), first: first})
}

// idAt returns the ID of the register or spill at a link position, 0
// when the slot holds no spill.
func (s *VState) idAt(pos uint8) uint32 {
	if int(pos) < ebpf.MaxReg {
		return s.Regs[pos].ID
	}
	if j := NumStackSlots - 1 - (int(pos) - ebpf.MaxReg); j < len(s.stack) && s.stack[j].Kind == SlotSpill {
		return s.stack[j].Spill.ID
	}
	return 0
}

// exploredShard holds the explored states of a single pc behind its own
// lock, so concurrent subsumption checks at different instructions never
// serialize the run.
type exploredShard struct {
	mu      sync.Mutex
	entries []*exploredEntry
}

// computePrunePoints marks every jump target and post-branch
// instruction, the positions where explored states are recorded.
func computePrunePoints(prog *ebpf.Program) []bool {
	points := make([]bool, len(prog.Insns))
	for i, ins := range prog.Insns {
		if !ins.IsJump() {
			continue
		}
		op := ins.JmpOp()
		if op == ebpf.JmpCALL || op == ebpf.JmpEXIT {
			continue
		}
		tgt := i + 1 + int(ins.Off)
		if tgt >= 0 && tgt < len(prog.Insns) {
			points[tgt] = true
		}
		if op != ebpf.JmpJA && i+1 < len(prog.Insns) {
			points[i+1] = true
		}
	}
	return points
}

// isPrunePoint reports whether pc is a position where explored states
// are recorded. The bitmap is precomputed in New — it used to be built
// lazily from inside the walk loop, a data race once paths walk
// concurrently.
func (v *Verifier) isPrunePoint(pc int) bool { return v.prunePoints[pc] }

// pruned reports whether an already-explored state at pc subsumes st; if
// not, st is recorded for future pruning and the entry's liveness flag
// is returned for retraction bookkeeping. Under parallel exploration an
// entry is only eligible to prune a walk ordered after the walk that
// recorded it — the visibility rule that keeps verdicts and reported
// errors identical to the sequential DFS regardless of timing — and,
// except for the recording walk itself, only once the recorder's whole
// subtree has finished. The subtree gate makes the dead flag race-free:
// a retraction can only come from a walk whose history passes through
// the entry (a subtree member), so once the subtree is closed any
// retraction has already landed; dead is therefore read again after the
// gate. The recorder may keep pruning against its own entries mid-flight
// (loop revisits): its history shares every branch a later refinement
// could condition on. Every condition is a pure conjunct, so the order
// gate is evaluated only for an entry that subsumes st.
func (v *Verifier) pruned(pc int, st *VState, order *pathOrder) (bool, *atomic.Bool) {
	par := v.cfg.ParallelPaths > 1
	sh := &v.explored[pc]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, e := range sh.entries {
		// A retracted entry never revives, so it is skipped at once;
		// refinements inside loops leave many of them behind.
		if e.dead.Load() || !e.subsumes(st) {
			continue
		}
		if par {
			if !orderBefore(e.order, order) || e.order != order && e.order.open.Load() != 0 {
				continue
			}
			if e.dead.Load() { // a retraction that landed before the gate closed
				continue
			}
		}
		return true, nil
	}
	if len(sh.entries) >= maxExploredPerInsn {
		return false, nil
	}
	e := newExploredEntry(st, order)
	sh.entries = append(sh.entries, e)
	return false, &e.dead
}

// releaseExplored returns the pruning table's entries to the pool.
// Verify calls it after every walk has finished — all workers joined —
// when nothing can read the table or a dead flag any more.
func (v *Verifier) releaseExplored() {
	for i := range v.explored {
		sh := &v.explored[i]
		for _, e := range sh.entries {
			e.order = nil
			entryPool.Put(e)
		}
		sh.entries = nil
	}
}

// subsumes reports whether every concrete state admitted by st was
// admitted by the recorded one (states_equal with range liveness,
// conservative).
//
// Identity: where the recorded state relied on two values sharing an ID,
// st must link them too. Each link asks that st's ID at the position be
// non-zero and equal to its ID at the first position of the same
// recorded ID; together the links ask exactly what a recorded-to-new ID
// map built over the same positions would.
func (e *exploredEntry) subsumes(st *VState) bool {
	// The old exploration's subtree may contain packet accesses proven
	// safe only up to its range; a new state with a smaller proven range
	// would not survive them (kernel: rold->range > rcur->range is not
	// safe).
	if e.pktRange > st.PktRange {
		return false
	}
	for i := range e.regs {
		if !regSubsumes(&e.regs[i], &st.Regs[i]) {
			return false
		}
	}
	for k := range e.slots {
		old := &e.slots[k]
		j := NumStackSlots - 1 - int(old.idx)
		if j >= len(st.stack) || !slotSubsumes(&old.slot, &st.stack[j]) {
			// An unallocated slot is invalid: neither zero nor a spill.
			return false
		}
	}
	for _, l := range e.links {
		if id := st.idAt(l.pos); id == 0 || id != st.idAt(l.first) {
			return false
		}
	}
	return true
}

// regSubsumes reports whether old's abstraction covers new's (regsafe),
// identities aside.
func regSubsumes(old, new *RegState) bool {
	switch old.Type {
	case NotInit:
		// Old exploration never read this register (it would have been
		// rejected), so its contents are irrelevant.
		return true
	case Scalar:
		if new.Type != Scalar {
			return false
		}
		return rangeSubsumes(old, new)
	case PtrToStack, PtrToCtx, PtrToMapValue, PtrToMapValueOrNull, ConstPtrToMap,
		PtrToPacket, PtrToPacketEnd:
		if new.Type != old.Type || new.Off != old.Off || new.MapIdx != old.MapIdx {
			return false
		}
		return rangeSubsumes(old, new)
	}
	return false
}

// rangeSubsumes checks containment across all five domains.
func rangeSubsumes(old, new *RegState) bool {
	return old.UMin <= new.UMin && old.UMax >= new.UMax &&
		old.SMin <= new.SMin && old.SMax >= new.SMax &&
		old.U32Min <= new.U32Min && old.U32Max >= new.U32Max &&
		old.S32Min <= new.S32Min && old.S32Max >= new.S32Max &&
		tnum.In(old.Var, new.Var)
}

// slotSubsumes checks stack slot compatibility (stacksafe) for a
// recorded zero or spill slot. The unrecorded kinds subsume anything:
// an invalid slot was never read under old (reads are rejected), and old
// treated a misc slot's contents as arbitrary bytes.
func slotSubsumes(old, new *StackSlot) bool {
	switch old.Kind {
	case SlotZero:
		if new.Kind == SlotZero {
			return true
		}
		return new.Kind == SlotSpill && new.Spill.Type == Scalar &&
			new.Spill.IsConst() && new.Spill.ConstVal() == 0
	case SlotSpill:
		return new.Kind == SlotSpill && regSubsumes(&old.Spill, &new.Spill)
	}
	return false // only zero and spill slots are recorded
}

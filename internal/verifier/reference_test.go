package verifier

import (
	"math"
	"math/rand/v2"
	"testing"

	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// This file keeps the full-state subsumption check the compact pruning
// table replaced — a pairwise comparison over a fixed 64-slot frame with
// a per-call identity map — verbatim apart from the names, as the oracle
// the compact check must agree with on every pair of states.

// refVState is the 64-slot form the reference compares.
type refVState struct {
	Regs     [ebpf.MaxReg]RegState
	Stack    [NumStackSlots]StackSlot
	PktRange uint32
}

// toRef expands s's sized stack to the whole frame.
func toRef(s *VState) *refVState {
	r := &refVState{Regs: s.Regs, PktRange: s.PktRange}
	for i := range r.Stack {
		r.Stack[i] = s.slot(i)
	}
	return r
}

// refIDMap tracks the correspondence of register identities between an old
// (explored) and a new state, so that linkage assumptions in the old
// state are only relied on when the new state has them too.
type refIDMap map[uint32]uint32

func (m refIDMap) match(oldID, newID uint32) bool {
	if oldID == 0 {
		return true // old state assumed no linkage: always safe
	}
	if newID == 0 {
		return false // old relied on linkage the new state lacks
	}
	if cur, ok := m[oldID]; ok {
		return cur == newID
	}
	m[oldID] = newID
	return true
}

// refStatesSubsume reports whether every concrete state admitted by `new`
// was admitted by `old` (states_equal with range liveness, conservative).
func refStatesSubsume(old, new *refVState) bool {
	// The old exploration's subtree may contain packet accesses proven
	// safe only up to old.PktRange; a new state with a smaller proven
	// range would not survive them (kernel: rold->range > rcur->range is
	// not safe).
	if old.PktRange > new.PktRange {
		return false
	}
	ids := refIDMap{}
	for i := range old.Regs {
		if !refRegSubsumes(&old.Regs[i], &new.Regs[i], ids) {
			return false
		}
	}
	for i := range old.Stack {
		if !refSlotSubsumes(&old.Stack[i], &new.Stack[i], ids) {
			return false
		}
	}
	return true
}

// refRegSubsumes reports whether old's abstraction covers new's (regsafe).
func refRegSubsumes(old, new *RegState, ids refIDMap) bool {
	if old.Type == NotInit {
		// Old exploration never read this register (it would have been
		// rejected), so its contents are irrelevant.
		return true
	}
	if !ids.match(old.ID, new.ID) {
		return false
	}
	switch old.Type {
	case Scalar:
		if new.Type != Scalar {
			return false
		}
		return refRangeSubsumes(old, new)
	case PtrToStack, PtrToCtx, PtrToMapValue, PtrToMapValueOrNull, ConstPtrToMap,
		PtrToPacket, PtrToPacketEnd:
		if new.Type != old.Type || new.Off != old.Off || new.MapIdx != old.MapIdx {
			return false
		}
		return refRangeSubsumes(old, new)
	}
	return false
}

// refRangeSubsumes checks containment across all five domains.
func refRangeSubsumes(old, new *RegState) bool {
	return old.UMin <= new.UMin && old.UMax >= new.UMax &&
		old.SMin <= new.SMin && old.SMax >= new.SMax &&
		old.U32Min <= new.U32Min && old.U32Max >= new.U32Max &&
		old.S32Min <= new.S32Min && old.S32Max >= new.S32Max &&
		tnum.In(old.Var, new.Var)
}

// refSlotSubsumes checks stack slot compatibility (stacksafe).
func refSlotSubsumes(old, new *StackSlot, ids refIDMap) bool {
	switch old.Kind {
	case SlotInvalid, SlotMisc:
		// Invalid: never read under old (reads rejected), so contents are
		// irrelevant. Misc: old treated contents as arbitrary bytes.
		return true
	case SlotZero:
		if new.Kind == SlotZero {
			return true
		}
		return new.Kind == SlotSpill && new.Spill.Type == Scalar &&
			new.Spill.IsConst() && new.Spill.ConstVal() == 0
	case SlotSpill:
		return new.Kind == SlotSpill && refRegSubsumes(&old.Spill, &new.Spill, ids)
	}
	return false
}

// stateGen draws random state pairs for the oracle: an old state, and a
// new one copied from it under a random ID renaming and then mutated a
// few times, so that about half the pairs subsume.
type stateGen struct{ r *rand.Rand }

// bound values: small offsets, byte and word edges, the full range.
var genBounds = []uint64{0, 1, 7, 8, 15, 255, 1 << 31, 1 << 32, math.MaxUint64 >> 1, math.MaxUint64}

// rangeReg returns a consistent scalar abstraction of [lo, hi].
func rangeReg(lo, hi uint64) RegState {
	r := unknownScalar()
	r.UMin, r.UMax = lo, hi
	r.Var = tnum.Range(lo, hi)
	r.sync()
	return r
}

func (g stateGen) bounds() (uint64, uint64) {
	a, b := genBounds[g.r.IntN(len(genBounds))], genBounds[g.r.IntN(len(genBounds))]
	return min(a, b), max(a, b)
}

// id draws from a small pool, so values often share one; 0 is no ID.
func (g stateGen) id() uint32 { return uint32(max(g.r.IntN(6)-1, 0)) }

// reg draws any RegType, NotInit included, with ranges and a tnum.
func (g stateGen) reg() RegState {
	t := RegType(g.r.IntN(int(PtrToPacketEnd) + 1))
	r := RegState{}
	switch {
	case t == NotInit:
	case g.r.IntN(4) == 0:
		r = constScalar(genBounds[g.r.IntN(3)])
	default:
		r = rangeReg(g.bounds())
	}
	r.Type = t
	if t.IsPtr() {
		r.Off = int32(g.r.IntN(2) * 8)
		r.MapIdx = int32(g.r.IntN(2))
	}
	r.ID = g.id()
	return r
}

// slot draws any slot kind; a spill holds any register.
func (g stateGen) slot() StackSlot {
	k := StackSlotKind(g.r.IntN(4))
	if k == SlotSpill {
		return StackSlot{Kind: k, Spill: g.reg()}
	}
	return StackSlot{Kind: k}
}

// old draws a state whose stack reaches a random depth, shallow more
// often than not.
func (g stateGen) old() *VState {
	s := &VState{PktRange: uint32(g.r.IntN(3) * 8)}
	for i := range s.Regs {
		s.Regs[i] = g.reg()
	}
	depth := g.r.IntN(9)
	if g.r.IntN(4) == 0 {
		depth = g.r.IntN(NumStackSlots + 1)
	}
	for j := 0; j < depth; j++ {
		s.setSlot(NumStackSlots-1-j, g.slot())
	}
	return s
}

// spillAt returns a pointer to the spilled register of frame slot i, or
// nil when the slot holds no spill.
func spillAt(s *VState, i int) *RegState {
	if j := NumStackSlots - 1 - i; j < len(s.stack) && s.stack[j].Kind == SlotSpill {
		return &s.stack[j].Spill
	}
	return nil
}

// anyReg picks a register or a spill of s at random.
func (g stateGen) anyReg(s *VState) *RegState {
	if len(s.stack) > 0 && g.r.IntN(3) == 0 {
		if r := spillAt(s, NumStackSlots-1-g.r.IntN(len(s.stack))); r != nil {
			return r
		}
	}
	return &s.Regs[g.r.IntN(ebpf.MaxReg)]
}

// derive copies old under an ID renaming and applies up to three
// mutations, some of which keep subsumption and some of which break it.
func (g stateGen) derive(old *VState) *VState {
	rename := [6]uint32{0, 11, 12, 13, 14, 15}
	if g.r.IntN(3) == 0 {
		rename[0] = 16 // the new state may link what old did not
	}
	s := &VState{Regs: old.Regs, PktRange: old.PktRange}
	s.stack = append(s.stack, old.stack...)
	for i := range s.Regs {
		s.Regs[i].ID = rename[s.Regs[i].ID]
	}
	for j := range s.stack {
		if s.stack[j].Kind == SlotSpill {
			s.stack[j].Spill.ID = rename[s.stack[j].Spill.ID]
		}
	}
	for n := g.r.IntN(4); n > 0; n-- {
		switch g.r.IntN(12) {
		case 0: // narrow a range
			if r := g.anyReg(s); r.Type == Scalar && r.UMin < r.UMax {
				id := r.ID
				*r = rangeReg(r.UMin+1, r.UMax)
				r.ID = id
			}
		case 1: // replace a value outright
			id := g.anyReg(s).ID
			r := g.anyReg(s)
			*r = g.reg()
			r.ID = id
		case 2: // one old ID maps to two new IDs
			g.anyReg(s).ID = 17
		case 3: // drop a linkage
			g.anyReg(s).ID = 0
		case 4: // link two values
			a, b := g.anyReg(s), g.anyReg(s)
			a.ID = b.ID
		case 5: // rewrite a slot
			s.setSlot(NumStackSlots-1-g.r.IntN(len(s.stack)+2), g.slot())
		case 6: // a zero slot becomes a spilled constant zero, or back
			i := NumStackSlots - 1 - g.r.IntN(len(s.stack)+1)
			if s.slot(i).Kind == SlotZero {
				s.setSlot(i, StackSlot{Kind: SlotSpill, Spill: constScalar(0)})
			} else {
				s.setSlot(i, StackSlot{Kind: SlotZero})
			}
		case 7: // a shallower stack
			s.stack = s.stack[:g.r.IntN(len(s.stack)+1)]
		case 8: // a deeper stack
			s.setSlot(g.r.IntN(NumStackSlots), StackSlot{Kind: SlotMisc})
		case 9: // a different packet range
			s.PktRange = uint32(g.r.IntN(3) * 8)
		case 10: // a different pointer offset or map
			if r := g.anyReg(s); r.Type.IsPtr() {
				r.Off += 8
			}
		case 11: // a different type
			g.anyReg(s).Type = RegType(g.r.IntN(int(PtrToPacketEnd) + 1))
		}
	}
	return s
}

// The compact pruning entry decides subsumption exactly as the
// full-state reference does.
func TestSubsumptionMatchesReference(t *testing.T) {
	g := stateGen{rand.New(rand.NewPCG(1, 2))}
	const pairs = 50000
	var yes, no, linked int
	for n := 0; n < pairs; n++ {
		old := g.old()
		var new *VState
		if n%8 == 0 {
			new = g.old() // unrelated states
		} else {
			new = g.derive(old)
		}
		e := newExploredEntry(old, nil)
		got := e.subsumes(new)
		if len(e.links) > 0 {
			linked++
		}
		entryPool.Put(e)
		want := refStatesSubsume(toRef(old), toRef(new))
		if got != want {
			t.Fatalf("pair %d: compact check says %v, reference says %v\nold: %+v\nnew: %+v",
				n, got, want, toRef(old), toRef(new))
		}
		if want {
			yes++
		} else {
			no++
		}
	}
	t.Logf("%d pairs: %d subsume, %d do not; %d old states carry ID links", pairs, yes, no, linked)
	if yes < pairs/5 || no < pairs/5 {
		t.Fatalf("generator is lopsided: %d subsume, %d do not", yes, no)
	}
}

package verifier

import (
	"runtime"
	"testing"

	"bcf/internal/ebpf"
)

// A clone owns its stack: writing or growing either side leaves the
// other as it was.
func TestCloneOwnsStack(t *testing.T) {
	s := entryState()
	defer releaseState(s)
	top := NumStackSlots - 1
	s.setSlot(top, StackSlot{Kind: SlotSpill, Spill: constScalar(5)})
	c := s.clone()
	defer releaseState(c)
	c.setSlot(top, StackSlot{Kind: SlotMisc})
	c.setSlot(0, StackSlot{Kind: SlotZero})
	c.Regs[ebpf.R0] = constScalar(1)
	if sl := s.slot(top); sl.Kind != SlotSpill || sl.Spill.ConstVal() != 5 {
		t.Fatalf("original's top slot became %+v after the clone wrote it", sl)
	}
	if k := s.slot(0).Kind; k != SlotInvalid || len(s.stack) != 1 {
		t.Fatalf("original grew with its clone: slot 0 is %v, %d slots allocated", k, len(s.stack))
	}
	if s.Regs[ebpf.R0].Type != NotInit {
		t.Fatal("original's R0 changed with its clone's")
	}
	s.setSlot(top-1, StackSlot{Kind: SlotZero})
	if k := c.slot(top - 1).Kind; k != SlotInvalid {
		t.Fatalf("clone's slot %d became %v after the original wrote it", top-1, k)
	}
}

// deepState returns a state with every slot written.
func deepState() *VState {
	s := entryState()
	for i := 0; i < NumStackSlots; i++ {
		if i%2 == 0 {
			s.setSlot(i, StackSlot{Kind: SlotSpill, Spill: RegState{Type: Scalar, ID: 7}})
		} else {
			s.setSlot(i, StackSlot{Kind: SlotZero})
		}
	}
	return s
}

// assertInvalidBelow fails unless every slot of s below top is invalid.
func assertInvalidBelow(t *testing.T, what string, s *VState, top int) {
	t.Helper()
	for i := 0; i < top; i++ {
		if k := s.slot(i).Kind; k != SlotInvalid {
			t.Fatalf("%s: slot %d reads %v, want invalid", what, i, k)
		}
	}
}

// Nothing of a released deep state shows through a recycled one: not in
// the entry state, not in a shallow clone, not in the slots a write
// deeper down uncovers.
func TestRecycledStateIsClean(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	shallow := entryState()
	defer releaseState(shallow)
	shallow.setSlot(NumStackSlots-1, StackSlot{Kind: SlotMisc})
	for round := 0; round < 8; round++ {
		releaseState(deepState())
		e := entryState()
		assertInvalidBelow(t, "entry state", e, NumStackSlots)
		e.setSlot(3, StackSlot{Kind: SlotMisc})
		for i := 4; i < NumStackSlots; i++ {
			if k := e.slot(i).Kind; k != SlotInvalid {
				t.Fatalf("slot %d above a deep write reads %v, want invalid", i, k)
			}
		}
		releaseState(e)

		releaseState(deepState())
		c := shallow.clone()
		assertInvalidBelow(t, "shallow clone", c, NumStackSlots-1)
		if k := c.slot(NumStackSlots - 1).Kind; k != SlotMisc {
			t.Fatalf("shallow clone's top slot reads %v, want misc", k)
		}
		releaseState(c)
	}
}

// A released pruning entry comes back live, with none of its previous
// slots or ID links.
func TestRecycledEntryIsClean(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	deep := deepState()
	defer releaseState(deep)
	fresh := entryState()
	defer releaseState(fresh)
	for round := 0; round < 8; round++ {
		v := &Verifier{explored: make([]exploredShard, 1)}
		_, dead := v.pruned(0, deep, &pathOrder{})
		if dead == nil {
			t.Fatal("first state at an empty pc was not recorded")
		}
		dead.Store(true) // retracted
		v.releaseExplored()

		e := newExploredEntry(fresh, nil)
		if e.dead.Load() || len(e.slots) != 0 || len(e.links) != 0 || e.order != nil {
			t.Fatalf("recycled entry: dead=%v, %d slots, %d links, order %p",
				e.dead.Load(), len(e.slots), len(e.links), e.order)
		}
		if !e.subsumes(fresh) {
			t.Fatal("recycled entry does not subsume the state it recorded")
		}
		entryPool.Put(e)
	}
}

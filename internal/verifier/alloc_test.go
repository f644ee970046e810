package verifier

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"bcf/internal/ebpf"
)

// straightLine is r0 = 0, then n-2 copies of r0 += 1, then exit.
func straightLine(n int) *ebpf.Program {
	var b strings.Builder
	b.WriteString("r0 = 0\n")
	for i := 0; i < n-2; i++ {
		b.WriteString("r0 += 1\n")
	}
	b.WriteString("exit\n")
	return mapProg(b.String())
}

// The walk's only per-instruction allocation is the path node: no state
// copies and, with Debug off, no log formatting.
func TestWalkAllocsPerInsn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	allocs := func(n int) float64 {
		p := straightLine(n)
		return testing.AllocsPerRun(20, func() {
			if err := New(p, Config{}).Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
	a100, a1000 := allocs(100), allocs(1000)
	perInsn := (a1000 - a100) / 900
	t.Logf("allocs: %.1f at n=100, %.1f at n=1000, %.2f per insn", a100, a1000, perInsn)
	if perInsn > 1.1 {
		t.Fatalf("walk allocates %.2f times per instruction, want at most ~1", perInsn)
	}
}

// grantRefiner grants every request with the wanted range and a short
// track, reading nothing but the path length.
type grantRefiner struct{}

func (grantRefiner) Refine(req *RefineRequest) (*RefineResult, error) {
	return &RefineResult{Lo: req.WantLo, Hi: req.WantHi, TrackStart: max(req.Path.Len()-8, 0)}, nil
}

// figure2Check reloads an unknown map byte and makes the Figure 2 access
// r6 + r2 + (15 - r2), which fails without a refinement: 8 instructions.
const figure2Check = `
	r2 = *(u64 *)(r6 +0)
	r2 &= 0xf
	r3 = 0xf
	r3 -= r2
	r1 = r6
	r1 += r2
	r1 += r3
	r0 = *(u8 *)(r1 +0)
`

// noiseBlock is figure2Check's length in irrelevant ALU instructions.
var noiseBlock = strings.Repeat("\tr7 += 1\n", 8)

// refineProg puts `rounds` of three blocks after a prefix of irrelevant
// instructions; the rest are noise, so the program has the same length
// and walks the same number of instructions for every rounds value.
func refineProg(prefix, rounds int) *ebpf.Program {
	var b strings.Builder
	b.WriteString(lookupPrologue + "\tr6 = r0\n\tr7 = 0\n")
	b.WriteString(strings.Repeat("\tr7 += 1\n", prefix))
	for i := 0; i < 3; i++ {
		if i < rounds {
			b.WriteString(figure2Check)
		} else {
			b.WriteString(noiseBlock)
		}
	}
	b.WriteString("\tr0 = 0\n\texit\n" + lookupEpilogue)
	return mapProg(b.String(), testMap16)
}

// bytesPerRun is the mean heap bytes f allocates, after one warm-up run
// fills the state pool.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// A refinement round reads the path in place: its cost must not depend on
// how long the path before the failed check is.
func TestRefineBytesIndependentOfPathLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	perRound := func(prefix int) float64 {
		load := func(rounds int) float64 {
			p := refineProg(prefix, rounds)
			return bytesPerRun(20, func() {
				v := New(p, Config{Refiner: grantRefiner{}})
				if err := v.Verify(); err != nil {
					t.Fatal(err)
				}
				if got := v.Stats().Refinements; got != rounds {
					panic(fmt.Sprintf("prefix %d: %d refinements, want %d", prefix, got, rounds))
				}
			})
		}
		return (load(3) - load(1)) / 2
	}
	short, long := perRound(64), perRound(2048)
	t.Logf("bytes per refinement round: %.0f after 64 insns, %.0f after 2048", short, long)
	// A copy of the 2048-step path alone would cost ~32 KiB a round; the
	// slack covers the runtime's own bookkeeping around a GC cycle.
	if math.Abs(long-short) > 256 {
		t.Fatalf("a refinement round allocates %.0f B after a 2048-insn prefix but %.0f B after 64",
			long, short)
	}
}

// fullShard returns a verifier whose pc 0 holds maxExploredPerInsn
// recorded states, none of which subsumes the returned state.
func fullShard() (*Verifier, *VState) {
	v := &Verifier{explored: make([]exploredShard, 1)}
	rec := entryState()
	defer releaseState(rec)
	rec.setSlot(NumStackSlots-2, StackSlot{Kind: SlotZero})
	for i := 0; i < maxExploredPerInsn; i++ {
		rec.Regs[ebpf.R0] = constScalar(uint64(i))
		rec.setSlot(NumStackSlots-1, StackSlot{Kind: SlotSpill, Spill: rec.Regs[ebpf.R0]})
		if hit, _ := v.pruned(0, rec, &pathOrder{}); hit {
			panic("distinct constants subsume each other")
		}
	}
	st := rec.clone()
	st.Regs[ebpf.R0] = constScalar(maxExploredPerInsn)
	return v, st
}

// A pruning lookup that misses compares in place: no identity map, no
// copy of either state.
func TestPruneMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	v, st := fullShard()
	defer v.releaseExplored()
	order := &pathOrder{}
	allocs := testing.AllocsPerRun(100, func() {
		if hit, dead := v.pruned(0, st, order); hit || dead != nil {
			t.Fatal("lookup against a full shard hit or recorded")
		}
	})
	if allocs != 0 {
		t.Fatalf("a missing lookup against a full shard allocates %.1f times, want 0", allocs)
	}
}

// A clone into a recycled state of the same stack depth reuses the
// recycled stack array.
func TestCloneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := entryState()
	defer releaseState(s)
	for i := NumStackSlots - 8; i < NumStackSlots; i++ {
		s.setSlot(i, StackSlot{Kind: SlotSpill, Spill: constScalar(uint64(i))})
	}
	releaseState(s.clone())
	allocs := testing.AllocsPerRun(100, func() { releaseState(s.clone()) })
	if allocs != 0 {
		t.Fatalf("clone into a recycled state allocates %.1f times, want 0", allocs)
	}
}

// forkLadder forks n times on an unknown context word; the path that
// never jumps then reads below the frame.
func forkLadder(n int) *ebpf.Program {
	var b strings.Builder
	b.WriteString("r2 = *(u32 *)(r1 +0)\nr0 = 0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "if r2 == %d goto l%d\nl%d:\n", i, i, i)
	}
	b.WriteString("r0 = *(u64 *)(r10 -520)\nexit\n")
	return mapProg(b.String())
}

// A run that stops at an error recycles the forks it never walked: the
// bytes a rejected run allocates per pending fork (path nodes, order
// coordinates, frontier growth) stay well under one VState.
func TestRejectedRunRecyclesPendingForks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	bytes := func(forks int) float64 {
		p := forkLadder(forks)
		return bytesPerRun(20, func() {
			if err := New(p, Config{}).Verify(); err == nil {
				panic("a read below the frame was accepted")
			}
		})
	}
	perFork := (bytes(64) - bytes(32)) / 32
	state := float64(unsafe.Sizeof(VState{}))
	t.Logf("%.0f B per pending fork; a VState is %.0f B", perFork, state)
	if perFork > state/2 {
		t.Fatalf("a rejected run allocates %.0f B per pending fork: its state is not recycled", perFork)
	}
}

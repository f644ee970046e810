package bcf

import (
	"testing"

	"bcf/internal/bcfenc"
	"bcf/internal/expr"
	"bcf/internal/proof"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// maxKernelRoundAllocs pins the kernel side of one refinement round on
// the loop-family condition below: encode the condition, decode the
// proof, check it. Decoding builds each term node once, in a single
// allocation, and the step slabs are sized exactly.
const maxKernelRoundAllocs = 60

// loopRound drives the first loop-family corpus entry to its round-th
// refinement and returns that round's condition and a proof of it.
func loopRound(t *testing.T, round int) (*expr.Expr, []byte) {
	t.Helper()
	prog := loopProg(t)
	sess := NewSession(prog, verifier.Config{InsnLimit: 4000})
	defer sess.Abort()
	lr := sess.Load()
	for i := 1; ; i++ {
		if lr.Done {
			t.Fatalf("%s finished after %d rounds, before round %d", prog.Name, i-1, round)
		}
		cond, err := bcfenc.DecodeCondition(lr.Condition)
		if err != nil {
			t.Fatal(err)
		}
		out, err := solver.Prove(nil, cond.Cond, solver.Options{})
		if err != nil || !out.Proven {
			t.Fatalf("round %d: condition not proven: %v", i, err)
		}
		proofBytes, err := bcfenc.EncodeProof(out.Proof)
		if err != nil {
			t.Fatal(err)
		}
		if i == round {
			return cond.Cond, proofBytes
		}
		lr = sess.Resume(proofBytes, nil)
	}
}

// TestKernelRoundAllocations is the allocation gate on the kernel's
// per-round wire work.
func TestKernelRoundAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	cond, proofBytes := loopRound(t, 8)
	round := func() {
		if _, err := bcfenc.EncodeCondition(&bcfenc.Condition{Cond: cond}); err != nil {
			t.Fatal(err)
		}
		pf, err := bcfenc.DecodeProof(proofBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := proof.CheckWithLimits(cond, pf, proof.DefaultLimits); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, round); n > maxKernelRoundAllocs {
		t.Errorf("kernel round allocates %v objects, want at most %d", n, maxKernelRoundAllocs)
	} else {
		t.Logf("kernel round allocates %v objects (gate %d)", n, maxKernelRoundAllocs)
	}
}

// TestMemoHitRoundAllocations is the allocation gate on a round whose
// proof check the memo answers: it allocates what encoding the condition
// allocates, and nothing for the key copy, the lookup, the decode or the
// check.
func TestMemoHitRoundAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	cond, proofBytes := loopRound(t, 8)
	encode := func() []byte {
		condBytes, err := bcfenc.EncodeCondition(&bcfenc.Condition{Cond: cond})
		if err != nil {
			t.Fatal(err)
		}
		return condBytes
	}
	r := NewRefiner(nil)
	// As delegate does: the key is the kernel's copy of the encoding.
	check := func() (bool, error) {
		r.condKey = append(r.condKey[:0], encode()...)
		return r.checkProof(cond, proofBytes)
	}
	if hit, err := check(); hit || err != nil {
		t.Fatalf("first check: hit %v, err %v", hit, err)
	}
	hitRound := func() {
		if hit, err := check(); !hit || err != nil {
			t.Fatalf("repeat check: hit %v, err %v", hit, err)
		}
	}
	enc := testing.AllocsPerRun(50, func() { encode() })
	if n := testing.AllocsPerRun(50, hitRound); n > enc {
		t.Errorf("memo-hit round allocates %v objects, encoding alone %v", n, enc)
	} else {
		t.Logf("memo-hit round allocates %v objects, all of them the encode's", n)
	}
}

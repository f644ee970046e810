package bcf

import (
	"bytes"
	"testing"

	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/corpus"
	"bcf/internal/ebpf"
	"bcf/internal/expr"
	"bcf/internal/faultinject"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// Tests of the kernel-side proof-check memo (Refiner.checkProof): a hit
// only ever repeats a check that succeeded, on byte-identical condition
// and proof under the same limits; everything else is checked in full.

// loopProg returns the first loop-family corpus program: every round of
// its load raises the same condition, so every round after the first
// can hit the memo.
func loopProg(t *testing.T) *ebpf.Program {
	t.Helper()
	for _, e := range corpus.Generate() {
		if e.Family == corpus.Loop {
			return e.Prog
		}
	}
	t.Fatal("corpus has no loop-family entry")
	return nil
}

// loopCfg is the evaluation budget the corpus is labelled under.
var loopCfg = verifier.Config{InsnLimit: 4000, ParallelPaths: 1}

// scriptedService is a stub ProofService that proves each condition in
// process. before, when set, runs first; bitblast, when set, picks the
// rounds proven by the bit-blast tier rather than the rewrite tier, which
// gives a different valid proof of the same condition.
type scriptedService struct {
	t        *testing.T
	round    int
	before   func(round int)
	bitblast func(round int) bool
}

func (s *scriptedService) Prove(condBytes []byte) ([]byte, error) {
	round := s.round
	s.round++
	if s.before != nil {
		s.before(round)
	}
	cond, err := bcfenc.DecodeCondition(condBytes)
	if err != nil {
		s.t.Errorf("round %d: %v", round, err)
		return nil, err
	}
	opts := solver.Options{DisableRewriteTier: s.bitblast != nil && s.bitblast(round)}
	out, err := solver.Prove(nil, cond.Cond, opts)
	if err != nil {
		s.t.Errorf("round %d: %v", round, err)
		return nil, err
	}
	if !out.Proven {
		return nil, errNoProof
	}
	return bcfenc.EncodeProof(out.Proof)
}

// runRefiner verifies prog with a refiner over svc, without a session.
func runRefiner(prog *ebpf.Program, svc ProofService) (*Refiner, error) {
	r := NewRefiner(svc)
	cfg := loopCfg
	cfg.Refiner = r
	return r, verifier.New(prog, cfg).Verify()
}

// hitPattern returns each round's MemoHit, and checks it against the
// MemoHits total.
func hitPattern(t *testing.T, st *Stats) []bool {
	t.Helper()
	hits := make([]bool, len(st.Requests))
	n := 0
	for i, q := range st.Requests {
		hits[i] = q.MemoHit
		if q.MemoHit {
			n++
		}
	}
	if n != st.MemoHits {
		t.Errorf("Stats.MemoHits = %d, but %d requests report a hit", st.MemoHits, n)
	}
	return hits
}

// TestMemoDifferentProofIsMiss alternates the tier in pairs of rounds
// (rewrite, rewrite, bit-blast, bit-blast, ...). A proof that differs
// from the memoised one is checked in full and then replaces it, so
// exactly the second round of each pair hits.
func TestMemoDifferentProofIsMiss(t *testing.T) {
	svc := &scriptedService{t: t, bitblast: func(round int) bool { return round/2%2 == 1 }}
	r, verdict := runRefiner(loopProg(t), svc)
	hits := hitPattern(t, r.Stats())
	if len(hits) < 8 {
		t.Fatalf("only %d rounds; the test needs at least 8", len(hits))
	}
	for i, hit := range hits {
		if want := i%2 == 1; hit != want {
			t.Errorf("round %d: MemoHit = %v, want %v", i, hit, want)
		}
	}
	_, plain := runRefiner(loopProg(t), &scriptedService{t: t})
	if verdict == nil || plain == nil || verdict.Error() != plain.Error() {
		t.Errorf("verdict %v, want %v as with a single tier", verdict, plain)
	}
}

// TestMemoLimitsChangeIsMiss changes Refiner.Limits before one round's
// check: that round is checked in full under the new limits, and the
// next one hits again.
func TestMemoLimitsChangeIsMiss(t *testing.T) {
	const changed = 5
	svc := &scriptedService{t: t}
	r := NewRefiner(svc)
	svc.before = func(round int) {
		if round == changed {
			r.Limits.MaxSteps--
		}
	}
	cfg := loopCfg
	cfg.Refiner = r
	verifier.New(loopProg(t), cfg).Verify()
	hits := hitPattern(t, r.Stats())
	if len(hits) <= changed+1 {
		t.Fatalf("only %d rounds", len(hits))
	}
	for i, hit := range hits {
		if want := i != 0 && i != changed; hit != want {
			t.Errorf("round %d: MemoHit = %v, want %v", i, hit, want)
		}
	}
}

// checkAs runs r's proof check on a round whose condition encodes to
// condBytes, keyed by a copy as delegate keys it.
func checkAs(r *Refiner, cond *expr.Expr, condBytes, proofBytes []byte) (bool, error) {
	r.condKey = append(r.condKey[:0], condBytes...)
	return r.checkProof(cond, proofBytes)
}

// TestMemoNeverHoldsRejectedProof feeds the checker proofs that fail it,
// one that does not decode and one of a different condition, before a
// good one: neither is memoised, the good proof is checked in full, and
// only its repeat hits.
func TestMemoNeverHoldsRejectedProof(t *testing.T) {
	cond, good := loopRound(t, 1)
	condBytes, err := bcfenc.EncodeCondition(&bcfenc.Condition{Cond: cond})
	if err != nil {
		t.Fatal(err)
	}
	other, err := solver.Prove(nil, expr.Ule(expr.And(expr.Var(0, 64), expr.Const(15, 64)), expr.Const(15, 64)), solver.Options{})
	if err != nil || !other.Proven {
		t.Fatalf("proving the other condition: %v", err)
	}
	wrong, err := bcfenc.EncodeProof(other.Proof)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRefiner(nil)
	for _, tc := range []struct {
		name     string
		proof    []byte
		hit, bad bool
	}{
		{"truncated", good[:len(good)/2], false, true},
		{"truncated again", good[:len(good)/2], false, true},
		{"proof of another condition", wrong, false, true},
		{"proof of another condition again", wrong, false, true},
		{"good", good, false, false},
		{"good again", good, true, false},
		{"truncated after good", good[:len(good)/2], false, true},
		{"good after truncated", good, true, false},
	} {
		hit, err := checkAs(r, cond, condBytes, tc.proof)
		if hit != tc.hit || (err != nil) != tc.bad {
			t.Errorf("%s: hit %v, err %v; want hit %v, rejected %v", tc.name, hit, err, tc.hit, tc.bad)
		}
	}
	if !r.memo.held || !bytes.Equal(r.memo.cond, condBytes) || !bytes.Equal(r.memo.proof, good) {
		t.Error("the memo does not hold the good proof of the condition")
	}
	// The memo keeps its own copy: a caller reusing its buffer cannot
	// turn a stored proof into something else.
	scratch := bytes.Clone(good)
	r = NewRefiner(nil)
	if _, err := checkAs(r, cond, condBytes, scratch); err != nil {
		t.Fatal(err)
	}
	scratch[len(scratch)-1] ^= 0x40
	if hit, _ := checkAs(r, cond, condBytes, scratch); hit {
		t.Error("a proof buffer mutated after its check hit the memo")
	}
}

// serviceFunc adapts a function to ProofService.
type serviceFunc func(condBytes []byte) ([]byte, error)

func (f serviceFunc) Prove(condBytes []byte) ([]byte, error) { return f(condBytes) }

// TestMemoKeyIsKernelCopy has user space rewrite the condition buffer it
// was handed, in place, before it returns a proof. Neither the lookup
// nor the insert may read those bytes: a round whose encoding user space
// overwrote with a memoised condition's must not hit, and a proof
// checked against one condition must not be stored under bytes user
// space wrote. Both attacks end in a proof-rejected rejection.
func TestMemoKeyIsKernelCopy(t *testing.T) {
	masked := expr.And(expr.Var(0, 64), expr.Const(7, 64))
	valid := expr.Ule(masked, expr.Const(15, 64))
	alsoValid := expr.Ule(masked, expr.Const(16, 64))
	invalid := expr.Ule(masked, expr.Const(6, 64))
	enc := func(c *expr.Expr) []byte {
		b, err := bcfenc.EncodeCondition(&bcfenc.Condition{Cond: c})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	validBytes, alsoValidBytes, invalidBytes := enc(valid), enc(alsoValid), enc(invalid)
	if len(validBytes) != len(invalidBytes) || len(alsoValidBytes) != len(invalidBytes) {
		t.Fatal("the three conditions must encode to the same length")
	}
	validProof, alsoValidProof := proveOrFail(t, validBytes), proveOrFail(t, alsoValidBytes)

	for _, tc := range []struct {
		name  string
		first *expr.Expr
		// answer returns the proof for a round, after rewriting its
		// condition buffer in place as it likes.
		answer func(round int, condBytes []byte) []byte
	}{
		{"lookup", valid, func(round int, condBytes []byte) []byte {
			if round == 1 {
				copy(condBytes, validBytes)
			}
			return validProof
		}},
		{"insert", alsoValid, func(round int, condBytes []byte) []byte {
			if round == 0 {
				copy(condBytes, invalidBytes)
			}
			return alsoValidProof
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			round := 0
			r := NewRefiner(serviceFunc(func(condBytes []byte) ([]byte, error) {
				pf := tc.answer(round, condBytes)
				round++
				return pf, nil
			}))
			req := &verifier.RefineRequest{}
			if err := r.delegate(tc.first, &tracker{}, req, 0); err != nil {
				t.Fatalf("honest first round: %v", err)
			}
			err := r.delegate(invalid, &tracker{}, req, 0)
			if c := bcferr.ClassOf(err); c != bcferr.ClassProofRejected {
				t.Fatalf("second round: %v (class %v), want a proof-rejected rejection", err, c)
			}
			if r.Stats().MemoHits != 0 {
				t.Errorf("%d memo hits, want none", r.Stats().MemoHits)
			}
		})
	}
}

// TestMemoCorruptedRepeatRejected tampers with the proof bytes entering
// the kernel on a round whose condition and honest proof are memoised:
// the corrupted bytes miss, are checked in full and rejected.
func TestMemoCorruptedRepeatRejected(t *testing.T) {
	const round = 3
	for _, p := range []faultinject.Point{faultinject.ProofCorrupt, faultinject.ProofTruncate} {
		t.Run(p.String(), func(t *testing.T) {
			inj := faultinject.New(7).Arm(p, round)
			sess := NewSession(loopProg(t), loopCfg)
			sess.Fault = inj
			err := driveManually(t, sess)
			if inj.Fired(p) != 1 {
				t.Fatalf("%s fired %d times", p, inj.Fired(p))
			}
			hits := hitPattern(t, sess.Refiner().Stats())
			if c := bcferr.ClassOf(err); c != bcferr.ClassProofRejected {
				t.Fatalf("verdict %v (class %v), want a proof-rejected rejection", err, c)
			}
			want := []bool{false, true, true, false}
			if len(hits) != len(want) {
				t.Fatalf("%d rounds, want %d", len(hits), len(want))
			}
			for i := range want {
				if hits[i] != want[i] {
					t.Errorf("round %d: MemoHit = %v, want %v", i, hits[i], want[i])
				}
			}
		})
	}
}

// TestMemoSessionsShareNothing interleaves two loads of the same program:
// each session's first round is a full check, and both see the same
// hits.
func TestMemoSessionsShareNothing(t *testing.T) {
	a := NewSession(loopProg(t), loopCfg)
	b := NewSession(loopProg(t), loopCfg)
	la, lb := a.Load(), b.Load()
	for !la.Done || !lb.Done {
		if !la.Done {
			la = a.Resume(proveOrFail(t, la.Condition), nil)
		}
		if !lb.Done {
			lb = b.Resume(proveOrFail(t, lb.Condition), nil)
		}
	}
	ha, hb := hitPattern(t, a.Refiner().Stats()), hitPattern(t, b.Refiner().Stats())
	if len(ha) < 2 || len(ha) != len(hb) {
		t.Fatalf("rounds: %d and %d", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i] != hb[i] || ha[i] != (i > 0) {
			t.Errorf("round %d: MemoHit %v and %v, want %v", i, ha[i], hb[i], i > 0)
		}
	}
}

// proveOrFail proves a condition the test knows to be valid.
func proveOrFail(t *testing.T, condBytes []byte) []byte {
	t.Helper()
	cond, err := bcfenc.DecodeCondition(condBytes)
	if err != nil {
		t.Fatal(err)
	}
	out, err := solver.Prove(nil, cond.Cond, solver.Options{})
	if err != nil || !out.Proven {
		t.Fatalf("condition not proven: %v", err)
	}
	buf, err := bcfenc.EncodeProof(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestMemoParallelPathsLoop runs a loop load with two path workers; under
// -race it shows that the memo is only touched behind the verifier's
// refinement lock.
func TestMemoParallelPathsLoop(t *testing.T) {
	cfg := loopCfg
	cfg.ParallelPaths = 2
	sess := NewSession(loopProg(t), cfg)
	err := driveManually(t, sess)
	if c := bcferr.ClassOf(err); err == nil || c == bcferr.ClassProofRejected || c == bcferr.ClassProtocol {
		t.Fatalf("verdict %v (class %v), want the loop's insn-limit rejection", err, c)
	}
	st := sess.Refiner().Stats()
	hitPattern(t, st)
	if st.MemoHits == 0 {
		t.Errorf("no memo hits in %d rounds", len(st.Requests))
	}
}

// TestConditionEncodingRoundTrips pins the property the memo's key rests
// on, for every condition of a cache-less corpus pass and of the faulted
// ParallelStress ladder grid at ParallelPaths 1: the encoding decodes to
// an equal term, which re-encodes to the same bytes.
func TestConditionEncodingRoundTrips(t *testing.T) {
	var progs []*ebpf.Program
	for _, e := range corpus.Generate() {
		progs = append(progs, e.Prog)
	}
	corpusN := len(progs)
	for depth := 5; depth <= 8; depth++ {
		for tail := 0; tail <= 32; tail += 8 {
			for faults := 1; faults <= 3; faults++ {
				progs = append(progs, corpus.ParallelStress(depth, tail, faults))
			}
		}
	}
	// The round counts of the same passes in the loader's
	// TestProverIdentity.
	const wantCorpus, wantLadders = 5215, 54
	seen := 0
	for i, prog := range progs {
		if i == corpusN {
			if seen != wantCorpus {
				t.Errorf("corpus pass raised %d conditions, want %d", seen, wantCorpus)
			}
			seen = 0
		}
		sess := NewSession(prog, loopCfg)
		sess.Refiner().onCondition = func(cond *expr.Expr, condBytes []byte) {
			seen++
			back, err := bcfenc.DecodeCondition(condBytes)
			if err != nil {
				t.Errorf("%s: condition does not decode: %v", prog.Name, err)
				return
			}
			if !expr.Equal(back.Cond, cond) {
				t.Errorf("%s: decoded condition differs from the encoded one", prog.Name)
			}
			re, err := bcfenc.EncodeCondition(back)
			if err != nil || !bytes.Equal(re, condBytes) {
				t.Errorf("%s: decoded condition re-encodes differently (err %v)", prog.Name, err)
			}
		}
		driveManually(t, sess)
	}
	if seen != wantLadders {
		t.Errorf("ladder grid raised %d conditions, want %d", seen, wantLadders)
	}
}

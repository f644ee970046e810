package bcfenc

import (
	"math/rand"
	"testing"

	"bcf/internal/expr"
	"bcf/internal/proof"
	"bcf/internal/solver"
)

func fig2Cond(hi uint64) *expr.Expr {
	sym := expr.Var(0, 64)
	m := expr.And(sym, expr.Const(0xf, 64))
	e := expr.Add(m, expr.Sub(expr.Const(0xf, 64), m))
	return expr.Ule(e, expr.Const(hi, 64))
}

func TestConditionRoundTrip(t *testing.T) {
	conds := []*expr.Expr{
		expr.True,
		fig2Cond(15),
		expr.Implies(
			expr.Ule(expr.Var(0, 32), expr.Const(10, 32)),
			expr.BoolAnd(
				expr.Ule(expr.Const(0, 64), expr.ZExt(expr.Var(0, 32), 64)),
				expr.Ne(expr.Extract(expr.Var(1, 64), 32, 32), expr.Const(0, 32)),
			),
		),
		expr.Eq(expr.Ashr(expr.Var(2, 64), expr.Const(31, 64)), expr.Const(0, 64)),
		// Every field the encoding must carry without loss: all 64 bits
		// of a constant, a 32-bit variable id.
		expr.Ule(expr.Var(0xfffffffe, 64), expr.Const(1<<63|1<<32|7, 64)),
	}
	for i, c := range conds {
		buf, err := EncodeCondition(&Condition{Cond: c})
		if err != nil {
			t.Fatalf("cond %d: encode: %v", i, err)
		}
		back, err := DecodeCondition(buf)
		if err != nil {
			t.Fatalf("cond %d: decode: %v", i, err)
		}
		if !expr.Equal(back.Cond, c) {
			t.Fatalf("cond %d: roundtrip changed term:\n got %s\nwant %s", i, back.Cond, c)
		}
		if again, err := EncodeCondition(back); err != nil || string(again) != string(buf) {
			t.Fatalf("cond %d: the decoded term re-encodes differently (err %v)", i, err)
		}
	}
}

func TestSharingKeepsEncodingCompact(t *testing.T) {
	// Figure 2's condition shares the mask subterm; the pool must encode
	// it once. Compare against an artificially unshared equivalent size.
	buf, err := EncodeCondition(&Condition{Cond: fig2Cond(15)})
	if err != nil {
		t.Fatal(err)
	}
	// 7 distinct nodes (var, 0xf, and, sub, add, 15, ule); generous cap.
	if len(buf) > 200 {
		t.Errorf("condition encoding unexpectedly large: %d bytes", len(buf))
	}
	// Paper: conditions average 836 bytes with min 88; sanity floor.
	if len(buf) < 24 {
		t.Errorf("suspiciously small encoding: %d bytes", len(buf))
	}
}

func TestProofRoundTrip(t *testing.T) {
	out, err := solver.Prove(nil, fig2Cond(15), solver.Options{})
	if err != nil || !out.Proven {
		t.Fatalf("prove: %v %+v", err, out)
	}
	buf, err := EncodeProof(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProof(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Steps) != len(out.Proof.Steps) {
		t.Fatalf("step count changed: %d -> %d", len(out.Proof.Steps), len(back.Steps))
	}
	for i := range back.Steps {
		a, b := &out.Proof.Steps[i], &back.Steps[i]
		if a.Rule != b.Rule || len(a.Premises) != len(b.Premises) || len(a.Args) != len(b.Args) ||
			a.Pivot != b.Pivot || a.ClauseIdx != b.ClauseIdx {
			t.Fatalf("step %d changed: %s -> %s", i, a.String(), b.String())
		}
		for j := range a.Args {
			if !expr.Equal(a.Args[j], b.Args[j]) {
				t.Fatalf("step %d arg %d changed", i, j)
			}
		}
	}
	// The decoded proof must still check.
	if err := proof.Check(fig2Cond(15), back); err != nil {
		t.Fatalf("decoded proof rejected: %v", err)
	}
}

func TestProofRoundTripBitblastTier(t *testing.T) {
	x, y := expr.Var(0, 16), expr.Var(1, 16)
	sum := expr.Add(expr.And(x, expr.Const(0xf, 16)), expr.And(y, expr.Const(0xf, 16)))
	cond := expr.Ule(sum, expr.Const(30, 16))
	out, err := solver.Prove(nil, cond, solver.Options{DisableRewriteTier: true})
	if err != nil || !out.Proven {
		t.Fatalf("prove: %v", err)
	}
	buf, err := EncodeProof(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProof(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := proof.Check(cond, back); err != nil {
		t.Fatalf("decoded bitblast proof rejected: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	good, err := EncodeCondition(&Condition{Cond: fig2Cond(15)})
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		{1, 2, 3},
		good[:8],
		append(append([]byte{}, good...), 0, 0, 0, 0),
	}
	for i, c := range cases {
		if _, err := DecodeCondition(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	if _, err := DecodeProof(good); err == nil {
		t.Error("condition message accepted as proof")
	}
}

// TestDecodeFuzz flips bytes in valid messages; the decoder must never
// panic, and whatever it accepts must still be well-formed.
func TestDecodeFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	condBuf, err := EncodeCondition(&Condition{Cond: fig2Cond(15)})
	if err != nil {
		t.Fatal(err)
	}
	out, err := solver.Prove(nil, fig2Cond(15), solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	proofBuf, err := EncodeProof(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 5000; iter++ {
		buf := append([]byte{}, condBuf...)
		buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
		if c, err := DecodeCondition(buf); err == nil {
			if werr := c.Cond.CheckWellFormed(); werr != nil {
				t.Fatalf("decoder accepted malformed condition: %v", werr)
			}
		}
		pb := append([]byte{}, proofBuf...)
		pb[rng.Intn(len(pb))] ^= byte(1 << rng.Intn(8))
		if p, err := DecodeProof(pb); err == nil {
			for _, s := range p.Steps {
				for _, a := range s.Args {
					if werr := a.CheckWellFormed(); werr != nil {
						t.Fatalf("decoder accepted malformed proof arg: %v", werr)
					}
				}
			}
		}
	}
}

func TestTruncationFuzz(t *testing.T) {
	condBuf, err := EncodeCondition(&Condition{Cond: fig2Cond(15)})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(condBuf); n++ {
		if _, err := DecodeCondition(condBuf[:n]); err == nil {
			t.Fatalf("truncated message (%d bytes) accepted", n)
		}
	}
}

// TestDecodeLeafHeaders pins how leaf headers decode: a constant wider
// than its width is masked, and a const or var header that carries
// operands decodes as the bare leaf once its operands decode.
func TestDecodeLeafHeaders(t *testing.T) {
	var w writer
	w.u32(MagicCondition)
	w.u32(Version)
	w.u32(6) // pool words
	w.u32(2) // root offset
	// Offset 0: var 5, width 64.
	w.u32(uint32(expr.OpVar) | 64<<8)
	w.u32(5)
	// Offset 2: boolean const 0x...03 carrying one operand (offset 0).
	w.u32(uint32(expr.OpConst) | 1<<8 | 1<<24)
	w.u64(0xffff_0000_0000_0003)
	w.u32(0)
	c, err := DecodeCondition(w.buf)
	if err != nil {
		t.Fatal(err)
	}
	if !expr.Equal(c.Cond, expr.True) || len(c.Cond.Args) != 0 {
		t.Fatalf("decoded %s with %d operands, want the bare constant true", c.Cond, len(c.Cond.Args))
	}
}

// TestDecodedStepsDoNotAlias checks that appending to one decoded step's
// premises or arguments never overwrites the next step's, although both
// are carved from shared slabs.
func TestDecodedStepsDoNotAlias(t *testing.T) {
	out, err := solver.Prove(nil, fig2Cond(15), solver.Options{})
	if err != nil || !out.Proven {
		t.Fatalf("prove: %v", err)
	}
	buf, err := EncodeProof(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeProof(buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeProof(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Steps {
		p.Steps[i].Premises = append(p.Steps[i].Premises, 1<<30)
		p.Steps[i].Args = append(p.Steps[i].Args, expr.False)
	}
	for i := range p.Steps {
		got, w := p.Steps[i], want.Steps[i]
		for j := range w.Premises {
			if got.Premises[j] != w.Premises[j] {
				t.Fatalf("step %d premise %d overwritten: %d, want %d", i, j, got.Premises[j], w.Premises[j])
			}
		}
		for j := range w.Args {
			if got.Args[j] != w.Args[j] && !expr.Equal(got.Args[j], w.Args[j]) {
				t.Fatalf("step %d arg %d overwritten: %s, want %s", i, j, got.Args[j], w.Args[j])
			}
		}
	}
}

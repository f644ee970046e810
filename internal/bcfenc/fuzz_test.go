package bcfenc

import (
	"fmt"
	"testing"

	"bcf/internal/expr"
	"bcf/internal/solver"
)

// Fuzz targets for the wire-format decoders: the kernel-side entry point
// for all untrusted bytes. Properties: never panic, and anything that
// decodes is well-formed and re-encodable (so a hostile stream cannot
// smuggle malformed terms past the boundary).

// literalCopy rebuilds e, sharing preserved, out of &expr.Expr{} literals,
// which carry no construction-time facts.
func literalCopy(e *expr.Expr, memo map[*expr.Expr]*expr.Expr) *expr.Expr {
	if c, ok := memo[e]; ok {
		return c
	}
	c := &expr.Expr{Op: e.Op, Width: e.Width, Aux: e.Aux, K: e.K}
	for _, a := range e.Args {
		c.Args = append(c.Args, literalCopy(a, memo))
	}
	memo[e] = c
	return c
}

// checkDecodedTerm asserts that a decoded term's construction-time
// well-formedness agrees with the full walk over the same term, and that
// its size bound never undercounts.
func checkDecodedTerm(t *testing.T, what string, e *expr.Expr) {
	t.Helper()
	got := e.CheckWellFormed()
	if got != nil {
		t.Fatalf("%s: decoded term is malformed: %v", what, got)
	}
	if full := literalCopy(e, map[*expr.Expr]*expr.Expr{}).CheckWellFormed(); full != nil {
		t.Fatalf("%s: well-formed at construction, but the full walk says %v", what, full)
	}
	if e.Size() > e.SizeBound() {
		t.Fatalf("%s: Size %d exceeds SizeBound %d", what, e.Size(), e.SizeBound())
	}
}

func condSeed(t interface{ Fatal(...any) }) []byte {
	b, err := EncodeCondition(&Condition{Cond: fig2Cond(15)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func proofSeed(t interface{ Fatal(...any) }) []byte {
	out, err := solver.Prove(nil, fig2Cond(15), solver.Options{})
	if err != nil || !out.Proven {
		t.Fatal(err)
	}
	b, err := EncodeProof(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func FuzzDecodeCondition(f *testing.F) {
	seed := condSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	for i := 0; i < len(seed); i += 7 {
		mut := append([]byte(nil), seed...)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCondition(data)
		if err != nil {
			return
		}
		if c.Cond == nil || c.Cond.Width != 1 {
			t.Fatal("decoder returned a non-boolean condition without error")
		}
		checkDecodedTerm(t, "condition", c.Cond)
		re, err := EncodeCondition(c)
		if err != nil {
			t.Fatalf("re-encoding a decoded condition failed: %v", err)
		}
		back, err := DecodeCondition(re)
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if !expr.Equal(back.Cond, c.Cond) {
			t.Fatal("round trip changed the condition")
		}
		// The encoding is canonical: an equal term encodes to the same
		// bytes. The kernel's proof-check memo keys on these bytes.
		again, err := EncodeCondition(back)
		if err != nil || string(again) != string(re) {
			t.Fatalf("re-encoding the round-tripped condition gave different bytes (err %v)", err)
		}
	})
}

func FuzzDecodeProof(f *testing.F) {
	seed := proofSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	for i := 0; i < len(seed); i += 11 {
		mut := append([]byte(nil), seed...)
		mut[i] ^= 0x04
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProof(data)
		if err != nil {
			return
		}
		for i := range p.Steps {
			for _, a := range p.Steps[i].Args {
				if a == nil {
					t.Fatalf("step %d: decoder produced a nil arg", i)
				}
				checkDecodedTerm(t, fmt.Sprintf("step %d arg", i), a)
			}
		}
		if _, err := EncodeProof(p); err != nil {
			t.Fatalf("re-encoding a decoded proof failed: %v", err)
		}
	})
}

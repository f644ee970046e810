package expr

import (
	"math"
	"math/rand"
	"testing"
)

// termGen draws seeded random terms: constructor-built well-formed ones,
// and corrupted ones that hide a hand-built &Expr{} literal or a
// malformed Rebuild node somewhere in the DAG.
type termGen struct {
	rng  *rand.Rand
	pool []*Expr // earlier terms, reused so the result is a shared DAG
}

var widths = []uint8{8, 16, 32, 64}

func (g *termGen) width() uint8 { return widths[g.rng.Intn(len(widths))] }

// bv returns a well-formed bit-vector term of width w.
func (g *termGen) bv(w uint8, depth int) *Expr {
	if len(g.pool) > 0 && g.rng.Intn(4) == 0 {
		if p := g.pool[g.rng.Intn(len(g.pool))]; p.Width == w {
			return p
		}
	}
	var e *Expr
	switch r := g.rng.Intn(8); {
	case depth == 0 || r == 0:
		e = Var(uint32(g.rng.Intn(4)), w)
	case r == 1:
		e = Const(g.rng.Uint64(), w)
	case r == 2:
		e = Bin(Op(int(OpAdd)+g.rng.Intn(int(OpAshr-OpAdd)+1)), g.bv(w, depth-1), g.bv(w, depth-1))
	case r == 3:
		if g.rng.Intn(2) == 0 {
			e = Not(g.bv(w, depth-1))
		} else {
			e = Neg(g.bv(w, depth-1))
		}
	case r == 4 && w > 8:
		e = ZExt(g.bv(w/2, depth-1), w)
	case r == 5 && w > 8:
		e = SExt(g.bv(w/2, depth-1), w)
	case r == 6 && w < 64:
		e = Extract(g.bv(w*2, depth-1), uint8(g.rng.Intn(int(w)+1)), w)
	default:
		e = Add(g.bv(w, depth-1), g.bv(w, depth-1))
	}
	g.pool = append(g.pool, e)
	return e
}

// boolean returns a well-formed boolean term.
func (g *termGen) boolean(depth int) *Expr {
	switch r := g.rng.Intn(5); {
	case depth == 0 || r == 0:
		w := g.width()
		return Pred(Op(int(OpEq)+g.rng.Intn(int(OpSle-OpEq)+1)), g.bv(w, 2), g.bv(w, 2))
	case r == 1:
		return BoolNot(g.boolean(depth - 1))
	case r == 2:
		return BoolOr(g.boolean(depth-1), g.boolean(depth-1))
	case r == 3:
		return Implies(g.boolean(depth-1), g.boolean(depth-1))
	default:
		return BoolAnd(g.boolean(depth-1), g.boolean(depth-1))
	}
}

// corrupt returns a node of width w, built either as a literal or
// through Rebuild, that breaks one rule (or, in the last case, none).
func (g *termGen) corrupt(w uint8) *Expr {
	x := g.bv(w, 1)
	var lit *Expr
	switch g.rng.Intn(7) {
	case 0: // bad width, below a parent of the right width
		lit = &Expr{Op: OpZExt, Width: w, Args: []*Expr{{Op: OpVar, Width: w - 1, K: 3}}}
	case 1: // bad arity
		lit = &Expr{Op: OpAdd, Width: w, Args: []*Expr{x}}
	case 2: // operand width mismatch
		lit = &Expr{Op: OpSub, Width: w, Args: []*Expr{x, g.bv(w/2, 1)}}
	case 3: // extract out of range
		lit = &Expr{Op: OpExtract, Width: w, Aux: 64 - w + 8, Args: []*Expr{g.bv(64, 1)}}
	case 4: // over-wide constant
		lit = &Expr{Op: OpConst, Width: 8, K: 0x100 | g.rng.Uint64()}
		if w != 8 {
			lit = &Expr{Op: OpZExt, Width: w, Args: []*Expr{lit}}
		}
	case 5: // invalid op
		lit = &Expr{Op: NumOps + Op(g.rng.Intn(10)), Width: w}
	default: // a well-formed literal over constructor-built operands
		lit = &Expr{Op: OpXor, Width: w, Args: []*Expr{x, g.bv(w, 1)}}
	}
	if g.rng.Intn(2) == 0 {
		// The same node, but built through Rebuild so it records its
		// own well-formedness and tree size.
		return Rebuild(lit.Op, lit.Width, lit.Aux, lit.K, lit.Args)
	}
	return lit
}

// term returns a boolean term, corrupted below its root with
// probability one half.
func (g *termGen) term() *Expr {
	if g.rng.Intn(2) == 0 {
		return g.boolean(3)
	}
	w := g.width()
	bad := g.corrupt(w)
	var e *Expr
	switch g.rng.Intn(4) {
	case 0:
		e = Ule(Add(bad, g.bv(w, 2)), g.bv(w, 1))
	case 1:
		e = BoolAnd(g.boolean(2), Eq(g.bv(w, 1), Not(bad)))
	case 2:
		// A literal parent over constructor-built children.
		e = &Expr{Op: OpBoolOr, Width: 1, Args: []*Expr{g.boolean(1), Eq(bad, bad)}}
	default:
		e = Implies(Slt(bad, g.bv(w, 2)), g.boolean(2))
	}
	return e
}

// TestCheckWellFormedMatchesReference checks construction-time
// well-formedness against the full walk it replaced: the same verdict,
// the same first error, and a size bound that never undercounts.
func TestCheckWellFormedMatchesReference(t *testing.T) {
	var good, bad int
	for seed := int64(0); seed < 300; seed++ {
		g := &termGen{rng: rand.New(rand.NewSource(seed))}
		for i := 0; i < 20; i++ {
			e := g.term()
			got, want := e.CheckWellFormed(), referenceCheckWellFormed(e)
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Fatalf("seed %d term %d %s: CheckWellFormed = %v, reference = %v", seed, i, e, got, want)
			}
			if got == nil {
				good++
			} else {
				bad++
			}
			if e.Size() > e.SizeBound() {
				t.Fatalf("seed %d term %d: Size %d exceeds SizeBound %d", seed, i, e.Size(), e.SizeBound())
			}
		}
	}
	if good == 0 || bad == 0 {
		t.Fatalf("generator is one-sided: %d well-formed, %d malformed terms", good, bad)
	}
}

// TestSizeBoundOnSharedDAG checks the bound on a DAG whose tree size
// dwarfs its node count, including one whose tree size saturates.
func TestSizeBoundOnSharedDAG(t *testing.T) {
	e := Var(0, 64)
	for i := 1; i <= 40; i++ {
		e = Add(e, e)
		if e.Size() != i+1 {
			t.Fatalf("depth %d: Size = %d, want %d", i, e.Size(), i+1)
		}
		tree := uint64(1)<<(i+1) - 1
		switch b := e.SizeBound(); {
		case tree < math.MaxUint32 && uint64(b) != tree:
			t.Fatalf("depth %d: SizeBound = %d, want the tree size %d", i, b, tree)
		case tree >= math.MaxUint32 && b != math.MaxInt:
			t.Fatalf("depth %d: saturated SizeBound = %d, want math.MaxInt", i, b)
		}
	}
}

// TestNilOperands checks that a nil operand anywhere in a term is an
// error, never a panic.
func TestNilOperands(t *testing.T) {
	lit := &Expr{Op: OpNot, Width: 64, Args: []*Expr{nil}}
	if err := lit.CheckWellFormed(); err == nil {
		t.Error("literal with a nil operand accepted")
	}
	if got := lit.Size(); got != 1 {
		t.Errorf("Size of a node with a nil operand = %d, want 1", got)
	}
	built := Rebuild(OpAdd, 64, 0, 0, []*Expr{Var(0, 64), nil})
	if err := built.CheckWellFormed(); err == nil {
		t.Error("Rebuild node with a nil operand accepted")
	}
	if built.SizeBound() != math.MaxInt {
		t.Errorf("SizeBound with a nil operand = %d, want math.MaxInt", built.SizeBound())
	}
	nested := Ule(Add(Var(0, 64), lit), Const(1, 64))
	if err := nested.CheckWellFormed(); err == nil {
		t.Error("nested nil operand accepted")
	}
	if _, err := ReplaceArg(Add(Var(0, 64), Var(1, 64)), 1, nil); err == nil {
		t.Error("ReplaceArg with a nil child accepted")
	}
	var none *Expr
	if err := none.CheckWellFormed(); err == nil {
		t.Error("nil term accepted")
	}
}

// TestConstructorAllocations pins a constructor at one allocation: the
// operands live inline in the node.
func TestConstructorAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	x, y := Var(0, 64), Var(1, 64)
	if n := testing.AllocsPerRun(100, func() { _ = Add(x, y) }); n != 1 {
		t.Errorf("Add allocates %v objects, want 1", n)
	}
}

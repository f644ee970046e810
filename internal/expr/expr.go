// Package expr implements the fixed-width bit-vector and boolean
// expression terms used by BCF's symbolic tracking, refinement conditions
// and proofs.
//
// Terms are immutable DAG nodes. Widths are in bits; width 1 denotes a
// boolean. eBPF registers give rise to widths 32 and 64; memory accesses
// to 8 and 16 as well. Because eBPF registers are fixed-size machine
// words, every term denotes a function over finitely many bounded
// variables, so validity of conditions is decidable (§4, Workload
// Delegation).
package expr

import (
	"fmt"
	"math"
	"strings"
)

// Op enumerates term constructors.
type Op uint8

// Term constructors. Bit-vector operations produce the width of their
// operands (except the width-changing ZExt/SExt/Extract); predicates and
// boolean connectives produce width 1.
const (
	OpInvalid Op = iota
	OpConst      // K = value
	OpVar        // K = variable id

	// Bit-vector arithmetic and logic (two operands, same width).
	OpAdd
	OpSub
	OpMul
	OpUDiv // total: x/0 = 0 (eBPF semantics)
	OpURem // total: x%0 = x (eBPF semantics)
	OpAnd
	OpOr
	OpXor
	OpShl // shift amount taken modulo width (eBPF semantics)
	OpLshr
	OpAshr

	// Unary bit-vector.
	OpNot // bitwise complement
	OpNeg // two's complement negation

	// Width changing. Aux carries the low bit index for Extract.
	OpZExt
	OpSExt
	OpExtract

	// Predicates over bit-vectors (result width 1).
	OpEq
	OpUlt
	OpUle
	OpSlt
	OpSle

	// Boolean connectives (operands and result width 1).
	OpBoolAnd
	OpBoolOr
	OpBoolNot
	OpImplies

	// NumOps is the number of constructors; used by the wire format.
	NumOps
)

var opNames = [...]string{
	OpInvalid: "invalid", OpConst: "const", OpVar: "var",
	OpAdd: "bvadd", OpSub: "bvsub", OpMul: "bvmul", OpUDiv: "bvudiv",
	OpURem: "bvurem", OpAnd: "bvand", OpOr: "bvor", OpXor: "bvxor",
	OpShl: "bvshl", OpLshr: "bvlshr", OpAshr: "bvashr",
	OpNot: "bvnot", OpNeg: "bvneg",
	OpZExt: "zero_extend", OpSExt: "sign_extend", OpExtract: "extract",
	OpEq: "=", OpUlt: "bvult", OpUle: "bvule", OpSlt: "bvslt", OpSle: "bvsle",
	OpBoolAnd: "and", OpBoolOr: "or", OpBoolNot: "not", OpImplies: "=>",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsPredicate reports whether the op produces a boolean from bit-vectors.
func (op Op) IsPredicate() bool { return op >= OpEq && op <= OpSle }

// IsBoolConnective reports whether the op combines booleans.
func (op Op) IsBoolConnective() bool { return op >= OpBoolAnd && op <= OpImplies }

// IsBinaryBV reports whether the op is a two-operand bit-vector operation.
func (op Op) IsBinaryBV() bool { return op >= OpAdd && op <= OpAshr }

// Expr is one immutable term node.
//
// Nodes built by the constructors record at construction whether the
// whole term is well-formed and an upper bound on its size, so
// CheckWellFormed and the proof checker's size limit cost O(1) on them.
// Hand-built &Expr{} literals record neither and take the full walk.
type Expr struct {
	Op    Op
	Width uint8 // result width in bits: 1, 8, 16, 32 or 64
	Aux   uint8 // Extract: low bit index
	wf    bool  // this node and every node below it pass checkNode
	// tree is the node count of the term unfolded as a tree, saturating
	// at math.MaxUint32; 0 means unknown (a literal somewhere below).
	tree uint32
	K    uint64
	Args []*Expr
	hash uint64
	ops  [2]*Expr // inline storage behind Args for up to two operands
}

// Mask returns the value mask for a width.
func Mask(width uint8) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// SignExtend interprets the low width bits of v as signed and extends.
func SignExtend(v uint64, width uint8) int64 {
	if width >= 64 {
		return int64(v)
	}
	shift := 64 - uint(width)
	return int64(v<<shift) >> shift
}

// newExpr builds a node, copying args so the caller's slice never
// escapes, and records its hash, well-formedness and tree size.
func newExpr(op Op, width uint8, aux uint8, k uint64, args ...*Expr) *Expr {
	e := &Expr{Op: op, Width: width, Aux: aux, K: k}
	switch {
	case len(args) == 0:
	case len(args) <= len(e.ops):
		n := copy(e.ops[:], args)
		e.Args = e.ops[:n:n]
	default:
		e.Args = append([]*Expr(nil), args...)
	}
	h := uint64(op)<<56 ^ uint64(width)<<48 ^ uint64(aux)<<40 ^ mix(k)
	wf := checkNode(e) == nodeOK
	tree := uint64(1)
	for _, a := range e.Args {
		if a == nil {
			wf, tree = false, 0
			continue
		}
		h = h*0x9e3779b97f4a7c15 + a.hash
		wf = wf && a.wf
		if a.tree == 0 || tree == 0 {
			tree = 0
		} else {
			tree += uint64(a.tree)
		}
	}
	e.hash = h
	e.wf = wf
	if tree > math.MaxUint32 {
		tree = math.MaxUint32
	}
	e.tree = uint32(tree)
	return e
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Const returns the constant term of the given width.
func Const(v uint64, width uint8) *Expr {
	return newExpr(OpConst, width, 0, v&Mask(width))
}

// Bool returns a boolean constant.
func Bool(v bool) *Expr {
	k := uint64(0)
	if v {
		k = 1
	}
	return newExpr(OpConst, 1, 0, k)
}

// True and False are the boolean constants.
var (
	True  = Bool(true)
	False = Bool(false)
)

// Var returns the variable term with the given id and width.
func Var(id uint32, width uint8) *Expr {
	return newExpr(OpVar, width, 0, uint64(id))
}

func mustSameWidth(op Op, a, b *Expr) {
	if a.Width != b.Width {
		panic(fmt.Sprintf("expr: %s operand widths differ: %d vs %d", op, a.Width, b.Width))
	}
}

// Bin builds a binary bit-vector operation.
func Bin(op Op, a, b *Expr) *Expr {
	if !op.IsBinaryBV() {
		panic(fmt.Sprintf("expr: %s is not a binary bit-vector op", op))
	}
	mustSameWidth(op, a, b)
	return newExpr(op, a.Width, 0, 0, a, b)
}

// Convenience binary constructors.
func Add(a, b *Expr) *Expr  { return Bin(OpAdd, a, b) }
func Sub(a, b *Expr) *Expr  { return Bin(OpSub, a, b) }
func Mul(a, b *Expr) *Expr  { return Bin(OpMul, a, b) }
func UDiv(a, b *Expr) *Expr { return Bin(OpUDiv, a, b) }
func URem(a, b *Expr) *Expr { return Bin(OpURem, a, b) }
func And(a, b *Expr) *Expr  { return Bin(OpAnd, a, b) }
func Or(a, b *Expr) *Expr   { return Bin(OpOr, a, b) }
func Xor(a, b *Expr) *Expr  { return Bin(OpXor, a, b) }
func Shl(a, b *Expr) *Expr  { return Bin(OpShl, a, b) }
func Lshr(a, b *Expr) *Expr { return Bin(OpLshr, a, b) }
func Ashr(a, b *Expr) *Expr { return Bin(OpAshr, a, b) }

// Not returns the bitwise complement.
func Not(a *Expr) *Expr { return newExpr(OpNot, a.Width, 0, 0, a) }

// Neg returns the two's-complement negation.
func Neg(a *Expr) *Expr { return newExpr(OpNeg, a.Width, 0, 0, a) }

// ZExt zero-extends a to the given width.
func ZExt(a *Expr, width uint8) *Expr {
	if width < a.Width {
		panic("expr: ZExt to narrower width")
	}
	if width == a.Width {
		return a
	}
	return newExpr(OpZExt, width, 0, 0, a)
}

// SExt sign-extends a to the given width.
func SExt(a *Expr, width uint8) *Expr {
	if width < a.Width {
		panic("expr: SExt to narrower width")
	}
	if width == a.Width {
		return a
	}
	return newExpr(OpSExt, width, 0, 0, a)
}

// Extract returns bits [lo, lo+width) of a.
func Extract(a *Expr, lo uint8, width uint8) *Expr {
	if uint(lo)+uint(width) > uint(a.Width) {
		panic(fmt.Sprintf("expr: Extract [%d,%d) from width %d", lo, lo+width, a.Width))
	}
	if lo == 0 && width == a.Width {
		return a
	}
	return newExpr(OpExtract, width, lo, 0, a)
}

// Pred builds a comparison predicate.
func Pred(op Op, a, b *Expr) *Expr {
	if !op.IsPredicate() {
		panic(fmt.Sprintf("expr: %s is not a predicate", op))
	}
	mustSameWidth(op, a, b)
	return newExpr(op, 1, 0, 0, a, b)
}

// Convenience predicate constructors.
func Eq(a, b *Expr) *Expr  { return Pred(OpEq, a, b) }
func Ult(a, b *Expr) *Expr { return Pred(OpUlt, a, b) }
func Ule(a, b *Expr) *Expr { return Pred(OpUle, a, b) }
func Slt(a, b *Expr) *Expr { return Pred(OpSlt, a, b) }
func Sle(a, b *Expr) *Expr { return Pred(OpSle, a, b) }

// Ne returns not(a = b).
func Ne(a, b *Expr) *Expr { return BoolNot(Eq(a, b)) }

func mustBool(op Op, args ...*Expr) {
	for _, a := range args {
		if a.Width != 1 {
			panic(fmt.Sprintf("expr: %s needs boolean operands", op))
		}
	}
}

// BoolAnd returns the conjunction of a and b.
func BoolAnd(a, b *Expr) *Expr {
	mustBool(OpBoolAnd, a, b)
	return newExpr(OpBoolAnd, 1, 0, 0, a, b)
}

// BoolOr returns the disjunction of a and b.
func BoolOr(a, b *Expr) *Expr {
	mustBool(OpBoolOr, a, b)
	return newExpr(OpBoolOr, 1, 0, 0, a, b)
}

// BoolNot returns the negation of a.
func BoolNot(a *Expr) *Expr {
	mustBool(OpBoolNot, a)
	return newExpr(OpBoolNot, 1, 0, 0, a)
}

// Implies returns a => b.
func Implies(a, b *Expr) *Expr {
	mustBool(OpImplies, a, b)
	return newExpr(OpImplies, 1, 0, 0, a, b)
}

// Conj folds a list of booleans into a conjunction; empty list is true.
func Conj(es ...*Expr) *Expr {
	var out *Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = BoolAnd(out, e)
		}
	}
	if out == nil {
		return True
	}
	return out
}

// IsConst reports whether e is a constant, returning its value.
func (e *Expr) IsConst() (uint64, bool) {
	if e.Op == OpConst {
		return e.K, true
	}
	return 0, false
}

// IsTrue reports whether e is the boolean constant true.
func (e *Expr) IsTrue() bool { return e.Op == OpConst && e.Width == 1 && e.K == 1 }

// IsFalse reports whether e is the boolean constant false.
func (e *Expr) IsFalse() bool { return e.Op == OpConst && e.Width == 1 && e.K == 0 }

// Hash returns a structural hash of the term.
func (e *Expr) Hash() uint64 { return e.hash }

// Equal reports structural equality.
func Equal(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.hash != b.hash || a.Op != b.Op || a.Width != b.Width ||
		a.Aux != b.Aux || a.K != b.K || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !Equal(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// Eval evaluates the term under the assignment env (variable id -> value).
// Results are truncated to the term's width; booleans are 0 or 1.
func (e *Expr) Eval(env func(id uint32) uint64) uint64 {
	m := Mask(e.Width)
	switch e.Op {
	case OpConst:
		return e.K & m
	case OpVar:
		return env(uint32(e.K)) & m
	case OpNot:
		return ^e.Args[0].Eval(env) & m
	case OpNeg:
		return -e.Args[0].Eval(env) & m
	case OpZExt:
		return e.Args[0].Eval(env)
	case OpSExt:
		return uint64(SignExtend(e.Args[0].Eval(env), e.Args[0].Width)) & m
	case OpExtract:
		return (e.Args[0].Eval(env) >> e.Aux) & m
	case OpBoolNot:
		return e.Args[0].Eval(env) ^ 1
	}
	a := e.Args[0].Eval(env)
	b := e.Args[1].Eval(env)
	aw := e.Args[0].Width
	switch e.Op {
	case OpAdd:
		return (a + b) & m
	case OpSub:
		return (a - b) & m
	case OpMul:
		return (a * b) & m
	case OpUDiv:
		if b == 0 {
			return 0
		}
		return (a / b) & m
	case OpURem:
		if b == 0 {
			return a & m
		}
		return (a % b) & m
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return (a << (b % uint64(e.Width))) & m
	case OpLshr:
		return a >> (b % uint64(e.Width))
	case OpAshr:
		sh := b % uint64(e.Width)
		return uint64(SignExtend(a, e.Width)>>sh) & m
	case OpEq:
		return b2u(a == b)
	case OpUlt:
		return b2u(a < b)
	case OpUle:
		return b2u(a <= b)
	case OpSlt:
		return b2u(SignExtend(a, aw) < SignExtend(b, aw))
	case OpSle:
		return b2u(SignExtend(a, aw) <= SignExtend(b, aw))
	case OpBoolAnd:
		return a & b
	case OpBoolOr:
		return a | b
	case OpImplies:
		return (a ^ 1) | b
	}
	panic(fmt.Sprintf("expr: eval of %s", e.Op))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Size returns the number of distinct nodes in the term (shared nodes
// counted once via the visited set). Nil operands count as no node.
func (e *Expr) Size() int {
	seen := map[*Expr]bool{}
	var walk func(*Expr) int
	walk = func(n *Expr) int {
		if n == nil || seen[n] {
			return 0
		}
		seen[n] = true
		total := 1
		for _, a := range n.Args {
			total += walk(a)
		}
		return total
	}
	return walk(e)
}

// SizeBound returns an upper bound on Size: the node count of the term
// unfolded as a tree, recorded at construction. It is math.MaxInt when
// the term contains a hand-built node or the count saturated, so a
// caller comparing it against a limit falls back to the exact Size.
func (e *Expr) SizeBound() int {
	if e.tree == 0 || e.tree == math.MaxUint32 {
		return math.MaxInt
	}
	return int(e.tree)
}

// Vars collects the variable ids (with widths) appearing in e.
func (e *Expr) Vars() map[uint32]uint8 {
	out := map[uint32]uint8{}
	seen := map[*Expr]bool{}
	var walk func(*Expr)
	walk = func(n *Expr) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.Op == OpVar {
			out[uint32(n.K)] = n.Width
		}
		for _, a := range n.Args {
			walk(a)
		}
	}
	walk(e)
	return out
}

// Rebuild constructs a node from decoded parts, recomputing the
// structural hash, well-formedness and tree size; args is copied. The
// parts are not checked, so callers (the wire-format decoder) must
// validate the result with CheckWellFormed, which answers in O(1).
func Rebuild(op Op, width uint8, aux uint8, k uint64, args []*Expr) *Expr {
	return newExpr(op, width, aux, k, args...)
}

// IsGround reports whether the term contains no variables.
func (e *Expr) IsGround() bool {
	if e.Op == OpVar {
		return false
	}
	for _, a := range e.Args {
		if !a.IsGround() {
			return false
		}
	}
	return true
}

// ReplaceArg returns a copy of t with child i replaced by c. The result
// is checked for well-formedness so rule application cannot construct
// ill-typed terms.
func ReplaceArg(t *Expr, i int, c *Expr) (*Expr, error) {
	if i < 0 || i >= len(t.Args) {
		return nil, fmt.Errorf("expr: child index %d out of range", i)
	}
	var buf [2]*Expr
	args := append(buf[:0], t.Args...)
	args[i] = c
	out := newExpr(t.Op, t.Width, t.Aux, t.K, args...)
	if err := out.CheckWellFormed(); err != nil {
		return nil, err
	}
	return out, nil
}

// String renders the term in SMT-LIB-like prefix notation.
func (e *Expr) String() string {
	var sb strings.Builder
	e.write(&sb)
	return sb.String()
}

func (e *Expr) write(sb *strings.Builder) {
	switch e.Op {
	case OpConst:
		if e.Width == 1 {
			if e.K == 1 {
				sb.WriteString("true")
			} else {
				sb.WriteString("false")
			}
			return
		}
		fmt.Fprintf(sb, "%#x", e.K)
	case OpVar:
		fmt.Fprintf(sb, "sym%d", e.K)
	case OpExtract:
		fmt.Fprintf(sb, "((_ extract %d %d) ", int(e.Aux)+int(e.Width)-1, e.Aux)
		e.Args[0].write(sb)
		sb.WriteByte(')')
	case OpZExt, OpSExt:
		fmt.Fprintf(sb, "((_ %s %d) ", e.Op, int(e.Width)-int(e.Args[0].Width))
		e.Args[0].write(sb)
		sb.WriteByte(')')
	default:
		sb.WriteByte('(')
		sb.WriteString(e.Op.String())
		for _, a := range e.Args {
			sb.WriteByte(' ')
			a.write(sb)
		}
		sb.WriteByte(')')
	}
}

// ValidWidth reports whether w is a legal term width.
func ValidWidth(w uint8) bool {
	switch w {
	case 1, 8, 16, 32, 64:
		return true
	}
	return false
}

// nodeFault names the first rule a single node breaks; checkNode returns
// it without allocating and fault renders it as an error.
type nodeFault uint8

const (
	nodeOK nodeFault = iota
	faultWidth
	faultConst
	faultOp
	faultArity
	faultNilOperand
	faultWidthMismatch
	faultBoolOperands
	faultExtract
)

// arity returns the operand count op takes, or -1 for an invalid op.
func arity(op Op) int {
	switch {
	case op == OpConst || op == OpVar:
		return 0
	case op == OpNot || op == OpNeg || op == OpBoolNot ||
		op == OpZExt || op == OpSExt || op == OpExtract:
		return 1
	case op.IsBinaryBV() || op.IsPredicate() || op.IsBoolConnective():
		return 2
	}
	return -1
}

// checkNode validates one node against its direct operands: width,
// constant range, op, arity and operand widths. A term is well-formed
// when every node in it passes.
func checkNode(n *Expr) nodeFault {
	if !ValidWidth(n.Width) {
		return faultWidth
	}
	want := arity(n.Op)
	switch {
	case want < 0:
		return faultOp
	case n.Op == OpConst && n.K&^Mask(n.Width) != 0:
		return faultConst
	case len(n.Args) != want:
		return faultArity
	}
	for _, a := range n.Args {
		if a == nil {
			return faultNilOperand
		}
	}
	switch {
	case n.Op.IsBinaryBV():
		if n.Args[0].Width != n.Width || n.Args[1].Width != n.Width {
			return faultWidthMismatch
		}
	case n.Op.IsPredicate():
		if n.Width != 1 || n.Args[0].Width != n.Args[1].Width {
			return faultWidthMismatch
		}
	case n.Op.IsBoolConnective():
		if n.Width != 1 || n.Args[0].Width != 1 ||
			(len(n.Args) > 1 && n.Args[1].Width != 1) {
			return faultBoolOperands
		}
	case n.Op == OpNot || n.Op == OpNeg:
		if n.Args[0].Width != n.Width {
			return faultWidthMismatch
		}
	case n.Op == OpZExt || n.Op == OpSExt:
		if n.Args[0].Width >= n.Width || n.Width == 1 || n.Args[0].Width == 1 {
			return faultWidthMismatch
		}
	case n.Op == OpExtract:
		if uint(n.Aux)+uint(n.Width) > uint(n.Args[0].Width) || n.Args[0].Width == 1 {
			return faultExtract
		}
	}
	return nodeOK
}

// fault renders the error for a fault checkNode found at n.
func (n *Expr) fault(f nodeFault) error {
	switch f {
	case faultWidth:
		return fmt.Errorf("expr: invalid width %d", n.Width)
	case faultConst:
		return fmt.Errorf("expr: constant %#x exceeds width %d", n.K, n.Width)
	case faultOp:
		return fmt.Errorf("expr: invalid op %d", n.Op)
	case faultArity:
		return fmt.Errorf("expr: %s arity %d, want %d", n.Op, len(n.Args), arity(n.Op))
	case faultNilOperand:
		return fmt.Errorf("expr: %s has a nil operand", n.Op)
	case faultWidthMismatch:
		return fmt.Errorf("expr: %s width mismatch", n.Op)
	case faultBoolOperands:
		return fmt.Errorf("expr: %s needs boolean operands", n.Op)
	case faultExtract:
		return fmt.Errorf("expr: extract out of range")
	}
	return nil
}

// CheckWellFormed validates widths and arities over the whole term; every
// trust boundary (the wire decoder, the prover, the bit-blaster and the
// proof checker) calls it. A constructor-built term answers from the flag
// newExpr recorded; otherwise the walk checks each node not already known
// to be well-formed.
func (e *Expr) CheckWellFormed() error {
	if e == nil {
		return fmt.Errorf("expr: nil term")
	}
	if e.wf {
		return nil
	}
	seen := map[*Expr]bool{}
	var walk func(*Expr) error
	walk = func(n *Expr) error {
		if n.wf || seen[n] {
			return nil
		}
		seen[n] = true
		if f := checkNode(n); f != nodeOK {
			return n.fault(f)
		}
		for _, a := range n.Args {
			if err := walk(a); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(e)
}

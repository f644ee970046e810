package proof

import (
	"strings"
	"testing"

	"bcf/internal/expr"
)

// doubling returns a DAG of depth+1 distinct nodes whose tree size is
// 2^(depth+1)-1: each level adds its predecessor to itself.
func doubling(depth int) *expr.Expr {
	e := expr.Var(0, 64)
	for i := 0; i < depth; i++ {
		e = expr.Add(e, e)
	}
	return e
}

// chain returns a DAG of n+1 distinct nodes with no sharing.
func chain(n int) *expr.Expr {
	e := expr.Var(0, 64)
	for i := 0; i < n; i++ {
		e = expr.Add(e, expr.Const(uint64(i), 64))
	}
	return e
}

// TestArgSizeLimitCountsSharedNodesOnce checks that the construction-time
// tree-size bound never changes the MaxArgNodes decision: an argument is
// too large exactly when its shared-node count exceeds the limit, on DAGs
// whose tree size exceeds the limit while their node count does not.
func TestArgSizeLimitCountsSharedNodesOnce(t *testing.T) {
	args := []*expr.Expr{doubling(10), doubling(20), doubling(40), chain(30), chain(300)}
	for _, limit := range []int{1, 10, 11, 12, 21, 61, 1 << 16} {
		lim := DefaultLimits
		lim.MaxArgNodes = limit
		for _, a := range args {
			p := &Proof{Steps: []Step{{Rule: RuleRefl, Args: []*expr.Expr{a}}}}
			err := CheckWithLimits(fig2Cond(15), p, lim)
			tooLarge := err != nil && strings.Contains(err.Error(), "argument too large")
			if want := a.Size() > limit; tooLarge != want {
				t.Errorf("limit %d, arg of %d nodes (tree bound %d): rejected as too large = %v, want %v (err %v)",
					limit, a.Size(), a.SizeBound(), tooLarge, want, err)
			}
		}
	}
}

// TestNestedNilArgumentRejected checks that a nil operand below an
// argument's root is a format error, not a checker panic.
func TestNestedNilArgumentRejected(t *testing.T) {
	bad := []*expr.Expr{
		{Op: expr.OpNot, Width: 64, Args: []*expr.Expr{nil}},
		expr.Rebuild(expr.OpAdd, 64, 0, 0, []*expr.Expr{expr.Var(0, 64), nil}),
		expr.Eq(expr.Var(0, 64), &expr.Expr{Op: expr.OpNeg, Width: 64, Args: []*expr.Expr{nil}}),
	}
	for i, a := range bad {
		p := &Proof{Steps: []Step{{Rule: RuleRefl, Args: []*expr.Expr{a}}}}
		err := Check(fig2Cond(15), p)
		if err == nil || !strings.Contains(err.Error(), "malformed argument") {
			t.Errorf("arg %d: Check = %v, want a malformed-argument error", i, err)
		}
	}
}

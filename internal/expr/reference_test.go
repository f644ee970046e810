package expr

import "fmt"

// referenceCheckWellFormed is the full-walk CheckWellFormed that
// construction-time well-formedness replaced, kept verbatim as an
// oracle: on every term it must return nil exactly when CheckWellFormed
// does. It panics on nil operands, which the oracle never generates.
func referenceCheckWellFormed(e *Expr) error {
	seen := map[*Expr]bool{}
	var walk func(*Expr) error
	walk = func(n *Expr) error {
		if seen[n] {
			return nil
		}
		seen[n] = true
		if !ValidWidth(n.Width) {
			return fmt.Errorf("expr: invalid width %d", n.Width)
		}
		wantArgs := 0
		switch {
		case n.Op == OpConst || n.Op == OpVar:
			wantArgs = 0
			if n.K&^Mask(n.Width) != 0 && n.Op == OpConst {
				return fmt.Errorf("expr: constant %#x exceeds width %d", n.K, n.Width)
			}
		case n.Op == OpNot || n.Op == OpNeg || n.Op == OpBoolNot ||
			n.Op == OpZExt || n.Op == OpSExt || n.Op == OpExtract:
			wantArgs = 1
		case n.Op.IsBinaryBV() || n.Op.IsPredicate() || n.Op.IsBoolConnective():
			wantArgs = 2
		default:
			return fmt.Errorf("expr: invalid op %d", n.Op)
		}
		if len(n.Args) != wantArgs {
			return fmt.Errorf("expr: %s arity %d, want %d", n.Op, len(n.Args), wantArgs)
		}
		switch {
		case n.Op.IsBinaryBV():
			if n.Args[0].Width != n.Width || n.Args[1].Width != n.Width {
				return fmt.Errorf("expr: %s width mismatch", n.Op)
			}
		case n.Op.IsPredicate():
			if n.Width != 1 || n.Args[0].Width != n.Args[1].Width {
				return fmt.Errorf("expr: %s width mismatch", n.Op)
			}
		case n.Op.IsBoolConnective():
			if n.Width != 1 || n.Args[0].Width != 1 ||
				(len(n.Args) > 1 && n.Args[1].Width != 1) {
				return fmt.Errorf("expr: %s needs boolean operands", n.Op)
			}
		case n.Op == OpBoolNot:
			if n.Width != 1 || n.Args[0].Width != 1 {
				return fmt.Errorf("expr: not needs a boolean operand")
			}
		case n.Op == OpNot || n.Op == OpNeg:
			if n.Args[0].Width != n.Width {
				return fmt.Errorf("expr: %s width mismatch", n.Op)
			}
		case n.Op == OpZExt || n.Op == OpSExt:
			if n.Args[0].Width >= n.Width || n.Width == 1 || n.Args[0].Width == 1 {
				return fmt.Errorf("expr: %s width mismatch", n.Op)
			}
		case n.Op == OpExtract:
			if uint(n.Aux)+uint(n.Width) > uint(n.Args[0].Width) || n.Args[0].Width == 1 {
				return fmt.Errorf("expr: extract out of range")
			}
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

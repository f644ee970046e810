package sat

import "testing"

// cnfFromBytes reads fuzz data as a CNF over at most 10 variables: the
// first byte picks the variable count, every later nonzero byte is a
// literal (low seven bits the variable, the top bit the sign) and a
// zero byte ends the current clause. Clauses and literals are capped so
// that brute force stays cheap.
func cnfFromBytes(data []byte) (int, [][]Lit) {
	if len(data) == 0 {
		return 0, nil
	}
	n := 1 + int(data[0])%10
	var clauses [][]Lit
	var cur []Lit
	for _, b := range data[1:] {
		if b == 0 {
			clauses = append(clauses, cur)
			cur = nil
			if len(clauses) == 64 {
				return n, clauses
			}
			continue
		}
		if len(cur) == 8 {
			continue
		}
		l := Lit(1 + int(b&0x7f)%n)
		if b&0x80 != 0 {
			l = -l
		}
		cur = append(cur, l)
	}
	if cur != nil {
		clauses = append(clauses, cur)
	}
	return n, clauses
}

// FuzzSolve checks the solver against brute force on small CNFs: a SAT
// answer's model satisfies every clause, an UNSAT answer's refutation
// replays to the empty clause through the test-side resolution check,
// and the verdict agrees with enumeration.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0x81, 0})                               // x, ¬x
	f.Add([]byte{2, 1, 2, 0, 0x81, 2, 0, 1, 0x82, 0, 0x81, 0x82}) // all four 2-clauses
	f.Add([]byte{3, 1, 1, 0x81, 0, 2, 3, 2, 0, 0})                // tautology, duplicates, empty clause
	f.Add([]byte{9, 1, 2, 3, 0, 0x84, 5, 0, 0x86, 0x87, 8, 0, 9, 10, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, clauses := cnfFromBytes(data)
		if n == 0 {
			return
		}
		s := New(n, true)
		s.MaxConflicts = 100000
		for _, c := range clauses {
			if err := s.AddClause(c...); err != nil {
				t.Fatalf("AddClause(%v) over %d variables: %v", c, n, err)
			}
		}
		res, err := s.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		want, _ := bruteForce(n, clauses)
		if res.SAT != want {
			t.Fatalf("solver says SAT=%v, brute force %v, on %v", res.SAT, want, clauses)
		}
		if res.SAT {
			checkModel(t, clauses, res.Model)
		} else {
			replayProof(t, clauses, res.Proof)
		}
	})
}

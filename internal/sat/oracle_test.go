package sat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomCNF draws a CNF over n variables that mixes the shapes AddClause
// must normalise: duplicate literals, tautologies, units, conflicting
// units and (rarely) empty clauses.
func randomCNF(rng *rand.Rand, n int) [][]Lit {
	lit := func() Lit {
		l := Lit(1 + rng.Intn(n))
		if rng.Intn(2) == 0 {
			l = -l
		}
		return l
	}
	m := 1 + rng.Intn(5*n)
	clauses := make([][]Lit, 0, m)
	for i := 0; i < m; i++ {
		var c []Lit
		switch k := rng.Intn(40); {
		case k == 0:
			c = []Lit{} // empty clause
		case k < 4:
			c = []Lit{lit()} // unit
		case k < 6:
			l := lit()
			c = []Lit{l, lit(), -l} // tautology
		case k < 8:
			l := lit()
			c = []Lit{l, lit(), l, lit(), l} // duplicates
		case k == 8:
			l := lit()
			clauses = append(clauses, []Lit{l})
			c = []Lit{-l} // conflicting units
		default:
			w := 2 + rng.Intn(3)
			for j := 0; j < w; j++ {
				c = append(c, lit())
			}
		}
		clauses = append(clauses, c)
	}
	return clauses
}

// random3SAT draws a uniform 3-SAT instance near the threshold, deep
// enough to learn clauses, restart and eliminate level-0 literals.
func random3SAT(rng *rand.Rand, n int) [][]Lit {
	m := int(float64(n) * (3.8 + 0.8*rng.Float64()))
	clauses := make([][]Lit, m)
	for i := range clauses {
		for j := 0; j < 3; j++ {
			l := Lit(1 + rng.Intn(n))
			if rng.Intn(2) == 0 {
				l = -l
			}
			clauses[i] = append(clauses[i], l)
		}
	}
	return clauses
}

// solveBoth feeds the same clause batches to the solver and the
// reference solver, calling Solve after each batch, and fails on the
// first difference in an error or a Result. reserve selects how the
// solver's input slabs are sized: 0 not at all, 1 exactly for the
// batches, 2 too small for them. It tallies the outcomes in seen.
func solveBoth(t *testing.T, tag string, n int, batches [][][]Lit, logProof bool, maxConfl int64, reserve int, seen map[string]int) {
	t.Helper()
	s, ref := New(n, logProof), newRefSolver(n, logProof)
	s.MaxConflicts, ref.MaxConflicts = maxConfl, maxConfl
	for bi, batch := range batches {
		nLits := 0
		for _, c := range batch {
			nLits += len(c)
		}
		switch reserve {
		case 1:
			s.Reserve(len(batch), nLits)
		case 2:
			s.Reserve(len(batch)/2, nLits/3)
		}
		for ci, c := range batch {
			err, refErr := s.AddClause(c...), ref.AddClause(c...)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("%s: batch %d clause %d %v: AddClause error %v, reference %v", tag, bi, ci, c, err, refErr)
			}
		}
		res, err := s.Solve()
		refRes, refErr := ref.Solve()
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s: batch %d: Solve error %v, reference %v", tag, bi, err, refErr)
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Fatalf("%s: batch %d: result differs from the reference:\n got %+v %+v\nwant %+v %+v",
				tag, bi, res, res.Proof, refRes, refRes.Proof)
		}
		switch {
		case err != nil:
			seen["error"]++
		case res.SAT:
			seen["sat"]++
		case res.Proof != nil && len(res.Proof.Steps) > 20:
			seen["long proof"]++
		default:
			seen["unsat"]++
		}
	}
}

// TestSolverMatchesReference pins the dense solver to the map-based one
// it replaced: same verdict, model, proof steps and errors on seeded
// CNFs, with and without proof logging, under conflict budgets, with any
// slab sizing, and across AddClause after Solve plus a second Solve.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	seen := map[string]int{}
	for iter := 0; iter < 3000; iter++ {
		var n int
		var cnf [][]Lit
		if iter%4 == 3 {
			n = 20 + rng.Intn(60)
			cnf = random3SAT(rng, n)
		} else {
			n = 1 + rng.Intn(25)
			cnf = randomCNF(rng, n)
		}
		batches := [][][]Lit{cnf}
		if iter%5 == 0 {
			cut := rng.Intn(len(cnf) + 1)
			batches = [][][]Lit{cnf[:cut], cnf[cut:]}
		}
		var maxConfl int64
		if iter%7 == 0 {
			maxConfl = int64(1 + rng.Intn(20))
		}
		tag := fmt.Sprintf("iter %d (n=%d, %d clauses)", iter, n, len(cnf))
		solveBoth(t, tag, n, batches, iter%3 != 0, maxConfl, iter%3, seen)
	}
	for _, k := range []string{"error", "sat", "unsat", "long proof"} {
		if seen[k] < 50 {
			t.Errorf("only %d %q outcomes; the generator no longer covers them (%v)", seen[k], k, seen)
		}
	}
	t.Logf("outcomes: %v", seen)
}

// TestAddClauseRangeMatchesReference checks that every literal the
// reference accepted is still accepted and every one it rejected is
// rejected with the same message.
func TestAddClauseRangeMatchesReference(t *testing.T) {
	const n = 5
	for l := Lit(-n - 3); l <= n+3; l++ {
		s, ref := New(n, true), newRefSolver(n, true)
		err, refErr := s.AddClause(1, l), ref.AddClause(1, l)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("literal %d: AddClause error %v, reference %v", l, err, refErr)
		}
	}
}

// TestAddClauseRejectsMinInt32 is a regression test: Var of
// math.MinInt32 used to overflow to a negative variable, so AddClause
// accepted the literal and Solve then indexed with it and panicked.
func TestAddClauseRejectsMinInt32(t *testing.T) {
	for _, l := range []Lit{math.MinInt32, math.MinInt32 + 1, math.MaxInt32, 0, 4, -4} {
		s := New(3, true)
		if err := s.AddClause(l, 1); err == nil {
			t.Errorf("AddClause(%d, 1) over 3 variables: no error", l)
		}
		if _, err := s.Solve(); err != nil {
			t.Errorf("Solve after a rejected literal %d: %v", l, err)
		}
	}
}

package solver

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bcf/internal/sat"
)

// refutations draws seeded UNSAT CNFs, with units, duplicate literals
// and tautologies among the clauses, and returns their resolution
// refutations with the input clause count.
func refutations(rng *rand.Rand, want int) []*sat.Proof {
	var out []*sat.Proof
	for len(out) < want {
		n := 3 + rng.Intn(40)
		m := int(float64(n) * (4 + 2*rng.Float64()))
		s := sat.New(n, true)
		for i := 0; i < m; i++ {
			w := 1 + rng.Intn(3)
			if rng.Intn(8) != 0 {
				w = 3
			}
			c := make([]sat.Lit, 0, w+1)
			for j := 0; j < w; j++ {
				l := sat.Lit(1 + rng.Intn(n))
				if rng.Intn(2) == 0 {
					l = -l
				}
				c = append(c, l)
			}
			if rng.Intn(16) == 0 {
				c = append(c, c[0]) // duplicate
			}
			if rng.Intn(32) == 0 {
				c = append(c, -c[0]) // tautology
			}
			if err := s.AddClause(c...); err != nil {
				panic(err)
			}
		}
		res, err := s.Solve()
		if err != nil {
			panic(err)
		}
		if !res.SAT && len(res.Proof.Steps) > 0 {
			out = append(out, res.Proof)
		}
	}
	return out
}

// mutate returns a copy of p with one reference or pivot changed: to a
// negative id, the step's own id, a later step, an id past the end, or
// another earlier clause.
func mutate(rng *rand.Rand, p *sat.Proof) *sat.Proof {
	q := &sat.Proof{NumInputs: p.NumInputs, Steps: append([]sat.ResStep(nil), p.Steps...)}
	si := rng.Intn(len(q.Steps))
	own := int32(q.NumInputs + si)
	end := int32(q.NumInputs + len(q.Steps))
	var id int32
	switch rng.Intn(5) {
	case 0:
		id = -1 - rng.Int31n(3)
	case 1:
		id = own
	case 2:
		id = own + 1 + rng.Int31n(end-own)
	case 3:
		id = end + rng.Int31n(3)
	default:
		id = rng.Int31n(own)
	}
	switch rng.Intn(3) {
	case 0:
		q.Steps[si].A = id
	case 1:
		q.Steps[si].B = id
	default:
		q.Steps[si].Pivot = id
	}
	return q
}

// TestSatProofToStepsMatchesReference pins the slice-based translation
// to the map-based one it replaced: the same steps for every refutation
// the solver produces, and the same steps or the same error for
// refutations with one or more references moved anywhere, forward
// references included.
func TestSatProofToStepsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	errs := 0
	for i, p := range refutations(rng, 400) {
		cases := []*sat.Proof{p}
		for k := 0; k < 8; k++ {
			q := mutate(rng, p)
			for k%3 != 0 && rng.Intn(2) == 0 {
				q = mutate(rng, q)
			}
			cases = append(cases, q)
		}
		for k, q := range cases {
			got, err := satProofToSteps(q, q.NumInputs)
			want, refErr := referenceSatProofToSteps(q, q.NumInputs)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("refutation %d case %d: error %v, reference %v", i, k, err, refErr)
			}
			if k == 0 && err != nil {
				t.Fatalf("refutation %d: the solver's own proof is rejected: %v", i, err)
			}
			if err != nil {
				errs++
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("refutation %d case %d: steps differ from the reference:\n got %v\nwant %v", i, k, got.Steps, want.Steps)
			}
		}
	}
	if errs < 200 {
		t.Errorf("only %d mutated refutations were rejected; the mutations no longer reach the error paths", errs)
	}
	// Step 2 references the later step 3, which alone depends on the
	// malformed step 0: a recursive walk reaches step 0 and names it, so
	// the translation must too.
	forward := &sat.Proof{NumInputs: 4, Steps: []sat.ResStep{
		{A: -1, B: 0, Pivot: 1},
		{A: 0, B: 1, Pivot: 1},
		{A: 5, B: 7, Pivot: 1},
		{A: 4, B: 1, Pivot: 1},
		{A: 6, B: 2, Pivot: 1},
	}}
	for _, q := range []*sat.Proof{nil, {NumInputs: 3}, forward} {
		_, err := satProofToSteps(q, 4)
		_, refErr := referenceSatProofToSteps(q, 4)
		if err == nil || fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("proof %v: error %v, reference %v", q, err, refErr)
		}
	}
}

// TestSatProofToStepsDoNotAlias checks that the premise lists carved
// from one slab are capacity-capped, so appending to one cannot write
// into its neighbour.
func TestSatProofToStepsDoNotAlias(t *testing.T) {
	p := refutations(rand.New(rand.NewSource(3)), 1)[0]
	out, err := satProofToSteps(p, p.NumInputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range out.Steps {
		if cap(st.Premises) != len(st.Premises) {
			t.Fatalf("step %d: premises %v have capacity %d", i, st.Premises, cap(st.Premises))
		}
	}
}

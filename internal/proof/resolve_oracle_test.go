package proof

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bcf/internal/sat"
)

// TestResolveMatchesReference pins the mark-slice resolve to the
// map-based one it replaced: the same resolvent in the same order, or
// the same error, on seeded clause pairs with duplicate and
// complementary literals, a missing or one-sided pivot, and resolvents
// over the length limit. The scratch slice must come back all false.
func TestResolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nVars = 12
	seen := make([]bool, 2*(nVars+1))
	refSeen := map[sat.Lit]bool{}
	clause := func() []sat.Lit {
		c := make([]sat.Lit, rng.Intn(7))
		for i := range c {
			c[i] = sat.Lit(1 + rng.Intn(nVars))
			if rng.Intn(2) == 0 {
				c[i] = -c[i]
			}
		}
		return c
	}
	kinds := map[string]int{}
	for iter := 0; iter < 20000; iter++ {
		a, b := clause(), clause()
		pivot := 1 + rng.Intn(nVars)
		switch rng.Intn(4) {
		case 0:
			a = append(a, sat.Lit(pivot))
			b = append(b, sat.Lit(-pivot))
		case 1:
			a = append(a, sat.Lit(-pivot))
			b = append(b, sat.Lit(pivot))
		}
		maxLen := 1 + rng.Intn(10)
		buf := make([]sat.Lit, 0, len(a)+len(b))
		got, err := resolve(a, b, pivot, maxLen, seen, buf)
		want, refErr := referenceResolve(a, b, pivot, maxLen, refSeen)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("resolve(%v, %v, %d, %d): error %v, reference %v", a, b, pivot, maxLen, err, refErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("resolve(%v, %v, %d, %d) = %v, reference %v", a, b, pivot, maxLen, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("resolvent %v has capacity %d", got, cap(got))
		}
		if i := slices.Index(seen, true); i >= 0 {
			t.Fatalf("resolve(%v, %v, %d) left scratch slot %d set", a, b, pivot, i)
		}
		switch {
		case err != nil:
			kinds[strings.Fields(err.Error())[0]]++ // "pivot" or "resolvent"
		case len(got) == 0:
			kinds["empty"]++
		default:
			kinds["non-empty"]++
		}
	}
	if len(kinds) < 4 {
		t.Errorf("outcomes %v: the generator no longer covers both errors, empty and non-empty resolvents", kinds)
	}
}

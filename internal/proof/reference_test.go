package proof

import (
	"fmt"

	"bcf/internal/sat"
)

// The map-based resolution that resolve replaced, kept verbatim (only
// its name changed) as an oracle: on every pair of clauses the new
// resolve must give the same resolvent, in the same order, or the same
// error.

// referenceResolve computes the binary resolvent on pivot. seen is scratch space
// for deduplicating literals, cleared here and reused across steps.
func referenceResolve(a, b []sat.Lit, pivot int, maxLen int, seen map[sat.Lit]bool) ([]sat.Lit, error) {
	pos, neg := false, false
	clear(seen)
	var out []sat.Lit
	add := func(c []sat.Lit) {
		for _, l := range c {
			if l.Var() == pivot {
				if l > 0 {
					pos = true
				} else {
					neg = true
				}
				continue
			}
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	add(a)
	add(b)
	if !pos || !neg {
		return nil, fmt.Errorf("pivot %d does not occur with both polarities", pivot)
	}
	if len(out) > maxLen {
		return nil, fmt.Errorf("resolvent too large")
	}
	return out, nil
}

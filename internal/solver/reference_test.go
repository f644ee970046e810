package solver

import (
	"fmt"

	"bcf/internal/proof"
	"bcf/internal/sat"
)

// The map-based translation that satProofToSteps replaced, kept
// verbatim (only its name changed) as an oracle: on every refutation
// the new translation must emit the same steps or the same error.

// referenceSatProofToSteps translates a resolution refutation into checker steps:
// an assume step introduces ¬C, bb_clause steps materialize the input
// clauses the refutation touches, and each resolution becomes a resolve
// step. Only steps reachable from the final empty clause are emitted.
func referenceSatProofToSteps(rp *sat.Proof, numInputs int) (*proof.Proof, error) {
	if rp == nil {
		return nil, fmt.Errorf("missing resolution proof")
	}
	if len(rp.Steps) == 0 {
		// The CNF contained an empty input clause; a single bb_clause step
		// of that clause concludes false. Find it is the caller's concern;
		// emit assume + bb_clause(0)… the encoder never emits empty
		// clauses, so treat this as an error.
		return nil, fmt.Errorf("degenerate refutation")
	}
	// Mark steps needed for the final empty clause (backward sweep).
	needStep := make([]bool, len(rp.Steps))
	needInput := map[int32]bool{}
	var mark func(id int32)
	mark = func(id int32) {
		if int(id) < numInputs {
			needInput[id] = true
			return
		}
		si := int(id) - numInputs
		if si < 0 || si >= len(rp.Steps) || needStep[si] {
			return
		}
		needStep[si] = true
		mark(rp.Steps[si].A)
		mark(rp.Steps[si].B)
	}
	mark(int32(numInputs + len(rp.Steps) - 1))

	b := &builder{}
	assume := b.add(proof.RuleAssume, nil)
	idMap := map[int32]uint32{}
	for cid := int32(0); cid < int32(numInputs); cid++ {
		if !needInput[cid] {
			continue
		}
		idMap[cid] = b.addClauseStep(proof.Step{
			Rule:      proof.RuleBitblastClause,
			Premises:  []uint32{assume},
			ClauseIdx: cid,
		})
	}
	for si, st := range rp.Steps {
		if !needStep[si] {
			continue
		}
		a, okA := idMap[st.A]
		bb, okB := idMap[st.B]
		if !okA || !okB {
			return nil, fmt.Errorf("resolution step %d references an unmapped clause", si)
		}
		idMap[int32(numInputs+si)] = b.addClauseStep(proof.Step{
			Rule:     proof.RuleResolve,
			Premises: []uint32{a, bb},
			Pivot:    st.Pivot,
		})
	}
	return b.proof(), nil
}

// addClauseStep appends a bit-level step.
func (b *builder) addClauseStep(s proof.Step) uint32 {
	b.steps = append(b.steps, s)
	return uint32(len(b.steps) - 1)
}

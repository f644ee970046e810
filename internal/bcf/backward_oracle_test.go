package bcf

import (
	"errors"
	"math/rand"
	"testing"

	"bcf/internal/bcfenc"
	"bcf/internal/corpus"
	"bcf/internal/ebpf"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// backwardAnalysisSlice is the slice-based backward analysis that
// backwardAnalysis replaced, kept as its oracle. It scans a materialized
// path and returns the index at which symbolic tracking starts.
func backwardAnalysisSlice(prog *ebpf.Program, path []verifier.PathStep, target ebpf.Reg) int {
	end := len(path) - 1

	regs := uint16(1) << target
	slots := map[int16]bool{}
	need := func() bool { return regs != 0 || len(slots) > 0 }
	addReg := func(r ebpf.Reg) { regs |= 1 << r }
	delReg := func(r ebpf.Reg) { regs &^= 1 << r }
	hasReg := func(r ebpf.Reg) bool { return regs&(1<<r) != 0 }

	start := 0
	for i := end - 1; i >= 0; i-- {
		if !need() {
			start = i + 1
			break
		}
		ins := prog.Insns[path[i].Idx]
		switch ins.Class() {
		case ebpf.ClassALU, ebpf.ClassALU64:
			if !hasReg(ins.Dst) {
				continue
			}
			switch ins.AluOp() {
			case ebpf.AluMOV:
				delReg(ins.Dst)
				if ins.UsesSrcReg() {
					addReg(ins.Src)
				}
			case ebpf.AluNEG, ebpf.AluEND:
			default:
				if ins.UsesSrcReg() {
					addReg(ins.Src)
				}
			}
		case ebpf.ClassLD:
			if ins.IsLoadImm64() && hasReg(ins.Dst) {
				delReg(ins.Dst)
			}
		case ebpf.ClassLDX:
			if !hasReg(ins.Dst) {
				continue
			}
			delReg(ins.Dst)
			if ins.Src == ebpf.R10 && ins.LoadSize() == 8 && ins.Off%8 == 0 {
				slots[ins.Off] = true
			}
		case ebpf.ClassSTX, ebpf.ClassST:
			if ins.Dst == ebpf.R10 && ins.LoadSize() == 8 && ins.Off%8 == 0 && slots[ins.Off] {
				delete(slots, ins.Off)
				if ins.Class() == ebpf.ClassSTX {
					addReg(ins.Src)
				}
			}
		case ebpf.ClassJMP, ebpf.ClassJMP32:
			if ins.JmpOp() == ebpf.JmpCALL {
				for r := ebpf.R0; r <= ebpf.R5; r++ {
					delReg(r)
				}
			}
		}
	}
	if need() {
		start = 0
	}
	return start
}

// checkBackwardOracle compares the chain-based analysis with the oracle on
// one path and reports the track start they agree on.
func checkBackwardOracle(t *testing.T, prog *ebpf.Program, path verifier.Path, target ebpf.Reg) int {
	t.Helper()
	want := backwardAnalysisSlice(prog, path.Suffix(path.Len()), target)
	got := path.Len() - backwardAnalysis(prog, path, target)
	if got != want {
		t.Fatalf("track start %d, oracle %d (target R%d, path %v)",
			got, want, target, path.Suffix(path.Len()))
	}
	return got
}

// randomInsn draws from every instruction shape the backward analysis
// treats differently, over few registers and stack slots so that
// dependency chains, spill/fill pairs and clobbers are common.
func randomInsn(rng *rand.Rand) ebpf.Instruction {
	reg := func() ebpf.Reg { return ebpf.Reg(rng.Intn(6)) }
	slot := func() int16 { return int16(-8 * (1 + rng.Intn(3))) }
	switch rng.Intn(13) {
	case 0:
		return ebpf.Mov64Reg(reg(), reg())
	case 1:
		return ebpf.Mov64Imm(reg(), 7)
	case 2:
		return ebpf.Mov32Reg(reg(), reg())
	case 3:
		return ebpf.Alu64Reg(ebpf.AluADD, reg(), reg())
	case 4:
		return ebpf.Alu32Imm(ebpf.AluAND, reg(), 0xf)
	case 5:
		return ebpf.Neg64(reg())
	case 6:
		return ebpf.LoadImm64(reg(), 1<<40)
	case 7:
		return ebpf.LoadMem(reg(), ebpf.R10, slot(), 8)
	case 8:
		// Sub-register fills and fills through other pointers end the
		// chain at a fresh variable.
		if rng.Intn(2) == 0 {
			return ebpf.LoadMem(reg(), ebpf.R10, slot()+4, 4)
		}
		return ebpf.LoadMem(reg(), reg(), 0, 8)
	case 9:
		return ebpf.StoreMem(ebpf.R10, slot(), reg(), 8)
	case 10:
		return ebpf.StoreImm(ebpf.R10, slot(), 3, 8)
	case 11:
		return ebpf.Call(ebpf.FnMapLookupElem)
	default:
		return ebpf.JmpImm(ebpf.JmpJGT, reg(), 5, 1)
	}
}

func TestBackwardAnalysisOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		var insns []ebpf.Instruction
		var starts []int
		for len(insns) < 24 {
			ins := randomInsn(rng)
			starts = append(starts, len(insns))
			insns = append(insns, ins)
			if ins.IsLoadImm64() {
				insns = append(insns, ebpf.Instruction{})
			}
		}
		prog := &ebpf.Program{Type: ebpf.ProgTracepoint, Insns: insns}
		steps := make([]verifier.PathStep, 1+rng.Intn(64))
		for i := range steps {
			steps[i] = verifier.PathStep{Idx: starts[rng.Intn(len(starts))], Taken: rng.Intn(2) == 0}
		}
		checkBackwardOracle(t, prog, verifier.NewPath(steps...), ebpf.Reg(rng.Intn(6)))
	}
}

// oracleRefiner checks the backward analysis against the oracle on every
// request before delegating to the real refiner.
type oracleRefiner struct {
	t      *testing.T
	inner  *Refiner
	rounds int
}

func (o *oracleRefiner) Refine(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
	o.rounds++
	checkBackwardOracle(o.t, req.Prog, req.Path, req.Reg)
	return o.inner.Refine(req)
}

// memoProver proves conditions with the in-process solver, once per
// distinct condition.
type memoProver map[string]memoProof

type memoProof struct {
	proof []byte
	err   error
}

var errCounterexample = errors.New("condition has a counterexample")

func (m memoProver) Prove(condBytes []byte) ([]byte, error) {
	if p, ok := m[string(condBytes)]; ok {
		return p.proof, p.err
	}
	var p memoProof
	cond, err := bcfenc.DecodeCondition(condBytes)
	if err == nil {
		var out *solver.Outcome
		out, err = solver.Prove(nil, cond.Cond, solver.Options{})
		switch {
		case err != nil:
		case !out.Proven:
			err = errCounterexample
		default:
			p.proof, err = bcfenc.EncodeProof(out.Proof)
		}
	}
	p.err = err
	m[string(condBytes)] = p
	return p.proof, p.err
}

// Every refinement round of the corpus, loop family included, sees the
// same track start from both analyses.
func TestBackwardAnalysisOracleCorpus(t *testing.T) {
	prover := memoProver{}
	rounds := 0
	for _, e := range corpus.Generate() {
		ref := &oracleRefiner{t: t, inner: NewRefiner(prover)}
		v := verifier.New(e.Prog, verifier.Config{InsnLimit: 4000, Refiner: ref})
		_ = v.Verify()
		rounds += ref.rounds
	}
	if rounds == 0 {
		t.Fatal("the corpus issued no refinement requests")
	}
	t.Logf("%d refinement rounds checked", rounds)
}

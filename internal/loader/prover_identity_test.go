package loader

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
	"testing"

	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/corpus"
	"bcf/internal/ebpf"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// Pinned digests of every solver.Prove outcome on the conditions of a
// cache-less BCF pass over the corpus, and of a fixed set of faulted
// ParallelStress ladders. TestCorpusWireIdentity pins only proven pairs;
// these also pin refuted rounds, so a change to the bit-blaster or the
// SAT search that moves a counterexample, a proof byte or a tier fails
// here.
const (
	wantCorpusProves   = 5215
	wantCorpusRefuted  = 82
	wantCorpusBitblast = 306
	wantCorpusDigest   = "841cf85da32245d17d5cd56591001e360bc52985babfecb177f97fe18d010f55"
	wantLadderProves   = 54
	wantLadderRefuted  = 54
	wantLadderBitblast = 54
	wantLadderDigest   = "a91ec699839c9f341349a24f26b866f328ec147ca173b39559eb08ceb596459e"
)

// capturingProver proves each condition locally and folds the outcome
// into a digest. It stands in for a remote prover, so the loader hands
// it the exact condition bytes of every round. It runs on the
// verifier's goroutine, so it reports failures with Errorf.
type capturingProver struct {
	t        *testing.T
	sum      hash.Hash
	proves   int
	refuted  int
	bitblast int
}

func (c *capturingProver) put(v uint64) {
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], v)
	c.sum.Write(word[:])
}

func (c *capturingProver) putBytes(b []byte) {
	c.put(uint64(len(b)))
	c.sum.Write(b)
}

func (c *capturingProver) ProveBytes(ctx context.Context, condBytes []byte) ([]byte, error) {
	cond, err := bcfenc.DecodeCondition(condBytes)
	if err != nil {
		c.t.Errorf("condition %d does not decode: %v", c.proves, err)
		return nil, err
	}
	out, err := solver.Prove(ctx, cond.Cond, solver.Options{})
	if err != nil {
		c.t.Errorf("condition %d: %v", c.proves, err)
		return nil, err
	}
	c.proves++
	c.putBytes(condBytes)
	c.put(uint64(out.Tier))
	if out.Tier == solver.TierBitblast {
		c.bitblast++
	}
	if !out.Proven {
		c.refuted++
		c.put(0)
		ids := make([]uint32, 0, len(out.Counterexample))
		for id := range out.Counterexample {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		c.put(uint64(len(ids)))
		for _, id := range ids {
			c.put(uint64(id))
			c.put(out.Counterexample[id])
		}
		return nil, bcferr.WithCounterexample(bcferr.New(bcferr.ClassUnsafe,
			"condition violated (counterexample found)"), out.Counterexample)
	}
	c.put(1)
	buf, err := bcfenc.EncodeProof(out.Proof)
	if err != nil {
		c.t.Errorf("condition %d: encoding proof: %v", c.proves, err)
		return nil, err
	}
	c.putBytes(buf)
	return buf, nil
}

func proveAll(t *testing.T, progs []*ebpf.Program) *capturingProver {
	c := &capturingProver{t: t, sum: sha256.New()}
	for _, prog := range progs {
		Load(prog, Options{
			EnableBCF:  true,
			Verifier:   verifier.Config{InsnLimit: evalInsnLimit, ParallelPaths: 1},
			Remote:     c,
			RemoteOnly: true,
		})
	}
	return c
}

// TestProverIdentity pins the prover's answer to every condition a
// corpus pass and a set of faulted ladders raise: its tier, whether it
// proved the condition, the counterexample and the proof bytes.
func TestProverIdentity(t *testing.T) {
	var corpusProgs []*ebpf.Program
	for _, e := range corpus.Generate() {
		corpusProgs = append(corpusProgs, e.Prog)
	}
	var ladders []*ebpf.Program
	for depth := 5; depth <= 8; depth++ {
		for tail := 0; tail <= 32; tail += 8 {
			for faults := 1; faults <= 3; faults++ {
				ladders = append(ladders, corpus.ParallelStress(depth, tail, faults))
			}
		}
	}
	for _, tc := range []struct {
		name            string
		progs           []*ebpf.Program
		proves, refuted int
		bitblast        int
		digest          string
	}{
		{"corpus", corpusProgs, wantCorpusProves, wantCorpusRefuted, wantCorpusBitblast, wantCorpusDigest},
		{"ladders", ladders, wantLadderProves, wantLadderRefuted, wantLadderBitblast, wantLadderDigest},
	} {
		c := proveAll(t, tc.progs)
		got := hex.EncodeToString(c.sum.Sum(nil))
		t.Logf("%s: %d proves, %d refuted, %d bit-blasted, digest %s", tc.name, c.proves, c.refuted, c.bitblast, got)
		if c.proves != tc.proves || c.refuted != tc.refuted || c.bitblast != tc.bitblast {
			t.Errorf("%s: %d proves (%d refuted, %d bit-blasted), want %d (%d, %d)",
				tc.name, c.proves, c.refuted, c.bitblast, tc.proves, tc.refuted, tc.bitblast)
		}
		if got != tc.digest {
			t.Errorf("%s: prover outcome digest = %s, want %s", tc.name, got, tc.digest)
		}
	}
}

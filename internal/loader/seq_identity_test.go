package loader

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"bcf/internal/corpus"
	"bcf/internal/ebpf"
	"bcf/internal/verifier"
)

// Pinned digest of every load of TestSequentialIdentity. A change to the
// verifier's walk, state representation or pruning that moves a verdict,
// an error, any verifier.Stats counter (StatesPruned and InsnProcessed
// included), a round count or a single condition or proof byte at
// ParallelPaths 1 fails it.
const (
	wantSeqLoads  = 1096
	wantSeqDigest = "b7b8a78066392b4237f144a6a1b59c20afcd1f0f7cf580e510708ca02c1659eb"
)

// wireRecorder is a pass-through FaultHook that folds every condition
// and proof the loader exchanges into the digest, in round order.
type wireRecorder struct{ sum hash.Hash }

func (w wireRecorder) putBytes(tag byte, b []byte) {
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], uint64(len(b)))
	w.sum.Write([]byte{tag})
	w.sum.Write(word[:])
	w.sum.Write(b)
}

func (w wireRecorder) Condition(round int, b []byte) []byte { w.putBytes('c', b); return b }
func (w wireRecorder) Prove(round int) error                { return nil }
func (w wireRecorder) Proof(round int, b []byte) ([]byte, bool) {
	w.putBytes('p', b)
	return b, false
}

// TestSequentialIdentity pins, for every load at ParallelPaths 1, the
// verdict, the error, the full verifier.Stats, the round count and the
// condition and proof bytes. It covers the whole corpus with BCF on and
// off, and a grid of clean and faulted ParallelStress ladders both ways.
// TestCorpusWireIdentity and TestProverIdentity pin the wire and the
// prover but not the walk's own counters.
func TestSequentialIdentity(t *testing.T) {
	var progs []*ebpf.Program
	for _, e := range corpus.Generate() {
		progs = append(progs, e.Prog)
	}
	for depth := 3; depth <= 8; depth++ {
		for _, tail := range []int{0, 12} {
			for faults := 0; faults <= 2; faults++ {
				progs = append(progs, corpus.ParallelStress(depth, tail, faults))
			}
		}
	}

	sum := sha256.New()
	rec := wireRecorder{sum: sum}
	var word [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		sum.Write(word[:])
	}
	loads := 0
	for _, enableBCF := range []bool{true, false} {
		for _, prog := range progs {
			res := Load(prog, Options{
				EnableBCF: enableBCF,
				Verifier:  verifier.Config{InsnLimit: evalInsnLimit, ParallelPaths: 1},
				Fault:     rec,
			})
			loads++
			accepted := 0
			if res.Accepted {
				accepted = 1
			}
			put(accepted)
			put(int(res.ErrClass))
			if res.Err != nil {
				rec.putBytes('e', []byte(res.Err.Error()))
			}
			s := res.VerifierStats
			for _, v := range []int{s.InsnProcessed, s.PathsExplored, s.StatesPruned,
				s.PeakStackDepth, s.Refinements, s.RefineAttempts, res.Rounds} {
				put(v)
			}
		}
	}
	got := hex.EncodeToString(sum.Sum(nil))
	t.Logf("%d loads, digest %s", loads, got)
	if loads != wantSeqLoads {
		t.Errorf("%d loads, want %d", loads, wantSeqLoads)
	}
	if got != wantSeqDigest {
		t.Errorf("sequential identity digest = %s, want %s", got, wantSeqDigest)
	}
}

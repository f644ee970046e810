package loader

import (
	"testing"

	"bcf/internal/corpus"
	"bcf/internal/obs"
	"bcf/internal/verifier"
)

// TestProofMemoHits pins how many kernel proof checks the session's memo
// answers on a cache-less corpus pass at ParallelPaths 1. Every repeat is
// a loop-family round whose condition was already proven and checked
// earlier in the same load; no other family repeats one. The registry's
// counter must agree with the refiner's Stats.
func TestProofMemoHits(t *testing.T) {
	const wantRounds, wantHits = 5215, 4707
	reg := obs.NewRegistry()
	rounds, hits := 0, 0
	for _, e := range corpus.Generate() {
		res := Load(e.Prog, Options{
			EnableBCF: true,
			Verifier:  verifier.Config{InsnLimit: evalInsnLimit, ParallelPaths: 1},
			Obs:       reg,
		})
		st := res.RefineStats
		n := 0
		for _, q := range st.Requests {
			if q.MemoHit {
				n++
			}
		}
		if n != st.MemoHits {
			t.Errorf("%s: Stats.MemoHits = %d, but %d requests report a hit", e.Prog.Name, st.MemoHits, n)
		}
		if st.MemoHits > 0 && e.Family != corpus.Loop {
			t.Errorf("%s: %d memo hits outside the loop family", e.Prog.Name, st.MemoHits)
		}
		rounds += len(st.Requests)
		hits += st.MemoHits
	}
	t.Logf("%d memo hits in %d rounds", hits, rounds)
	if rounds != wantRounds || hits != wantHits {
		t.Errorf("%d memo hits in %d rounds, want %d in %d", hits, rounds, wantHits, wantRounds)
	}
	if got := reg.Snapshot().Counter(obs.MProofMemoHits); got != int64(hits) {
		t.Errorf("%s = %d, Stats report %d", obs.MProofMemoHits, got, hits)
	}
}

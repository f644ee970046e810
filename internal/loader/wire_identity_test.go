package loader

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"bcf/internal/corpus"
	"bcf/internal/verifier"
)

// Pinned digests of a BCF pass over the 512-entry corpus at ParallelPaths
// 1 through one ProofCache. A change to the condition encoder, the proof
// encoder or decoder, or the checker that moves a single wire byte, a
// verdict, a class or a round count changes one of them.
const (
	wantCachePairs    = 98
	wantCacheDigest   = "a01dc78e15d83fcea0bd8cd9d3a86aeb3c35cecc1611bbaaf8337ca3f7a48fec"
	wantOutcomeDigest = "2f661cada4f58eb92e4dc2e203f4f9b1923e20f40e93a7716f34a018dfea8791"
)

// TestCorpusWireIdentity pins the exact wire traffic of a corpus pass:
// every cached (condition bytes, proof bytes) pair, and each entry's
// verdict, error class, rounds and boundary byte counts.
func TestCorpusWireIdentity(t *testing.T) {
	cache := NewProofCache()
	outcomes := sha256.New()
	var word [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		outcomes.Write(word[:])
	}
	for _, e := range corpus.Generate() {
		res := Load(e.Prog, Options{
			EnableBCF:  true,
			Verifier:   verifier.Config{InsnLimit: evalInsnLimit, ParallelPaths: 1},
			ProofCache: cache,
		})
		accepted := 0
		if res.Accepted {
			accepted = 1
		}
		put(e.Index)
		put(accepted)
		put(int(res.ErrClass))
		put(res.Rounds)
		put(res.CondBytes)
		put(res.ProofBytes)
	}

	cache.mu.Lock()
	pairs := make([]*cacheEntry, 0, len(cache.entries))
	for _, el := range cache.entries {
		pairs = append(pairs, el.Value.(*cacheEntry))
	}
	cache.mu.Unlock()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })
	wire := sha256.New()
	for _, p := range pairs {
		for _, b := range [][]byte{[]byte(p.key), p.proof} {
			binary.LittleEndian.PutUint64(word[:], uint64(len(b)))
			wire.Write(word[:])
			wire.Write(b)
		}
	}

	if len(pairs) != wantCachePairs {
		t.Errorf("cached pairs = %d, want %d", len(pairs), wantCachePairs)
	}
	if got := hex.EncodeToString(wire.Sum(nil)); got != wantCacheDigest {
		t.Errorf("cached (condition, proof) digest = %s, want %s", got, wantCacheDigest)
	}
	if got := hex.EncodeToString(outcomes.Sum(nil)); got != wantOutcomeDigest {
		t.Errorf("per-entry outcome digest = %s, want %s", got, wantOutcomeDigest)
	}
}

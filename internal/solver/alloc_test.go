package solver

import (
	"context"
	"encoding/hex"
	"testing"

	"bcf/internal/bcfenc"
)

// bitblastCond is the encoded condition of a corpus refinement round
// that the rewrite tier cannot discharge, so Prove bit-blasts it (198
// clauses over 126 variables) and translates the refutation.
const bitblastCond = "31464342010000002e0000002b0000000140000020000000000000000240000001000000014000001f00000000000000084000020300000005000000044000020000000008000000014000000400000000000000140100020b0000000e0000001a0100011100000001400000010000000000000001400000030000000000000003400002080000001900000004400002000000001c00000015010002160000001f000000150100021f000000000000001801000222000000250000001b0100021400000028000000"

// maxBitblastProveAllocs gates Prove on bitblastCond. The map-based
// prover took 1407 allocations; the slab-based one takes 87.
const maxBitblastProveAllocs = 120

// TestBitblastProveAllocations is the allocation gate on one bit-blast
// tier prove: rewrite attempt, encoding, search and proof translation.
func TestBitblastProveAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	raw, err := hex.DecodeString(bitblastCond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := bcfenc.DecodeCondition(raw)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Prove(context.Background(), c.Cond, Options{})
	if err != nil || !out.Proven || out.Tier != TierBitblast {
		t.Fatalf("Prove = %+v, %v; want a bit-blast tier proof", out, err)
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := Prove(context.Background(), c.Cond, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if n > maxBitblastProveAllocs {
		t.Errorf("bit-blast tier Prove allocates %v objects, want at most %d", n, maxBitblastProveAllocs)
	} else {
		t.Logf("bit-blast tier Prove allocates %v objects (gate %d)", n, maxBitblastProveAllocs)
	}
}

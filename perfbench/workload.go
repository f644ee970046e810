package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"bcf/internal/bcferr"
	"bcf/internal/corpus"
	"bcf/internal/ebpf"
	"bcf/internal/loader"
	"bcf/internal/verifier"
)

// corpusInsnLimit is the corpus evaluation budget the repository's own
// evaluation uses; at 4000 the loop family ends in an insn-limit
// rejection after about 200 refinement rounds.
const corpusInsnLimit = 4000

// ladderInsnLimit is large enough that no drawn ladder hits it.
const ladderInsnLimit = 1 << 20

// loadTimeout is each workload's per-load deadline. A load that misses it
// fails (and its verdict class, solver-timeout, fails the label check too).
const loadTimeout = 10 * time.Second

// seqLen is the least length of the generated request sequence. A run
// that issues more requests wraps around to its start, a pass boundary.
const seqLen = 1 << 18

// A paths pass holds ladderRepeats ladders of every stratum (depth,
// clean or faulted, tail bucket) plus deepPerPass ladders of deepDepth.
// The seed draws each ladder's tail within its bucket, the fault count
// of faulted ladders (1 to ladderMaxFaults) and the order, so every pass
// of every seed loads the same mix. The deep ladders (about 30 to 60 ms
// each, against at most about 11 ms for the others) are 2% of a pass:
// the p99 falls among them and is set by ladder size, not by host
// scheduling stalls. More of them would leave too few loads in a run
// for a p99.
var ladderDepths = []int{5, 6, 7, 8}

const (
	ladderRepeats   = 4
	tailBuckets     = 8
	tailStep        = 4 // tails run from 0 to tailBuckets*tailStep
	ladderMaxFaults = 3
	deepDepth       = 11
	deepPerPass     = 5
)

// plantedOff is the stack offset of fault 0's out-of-bounds read in a
// corpus.ParallelStress ladder (fault f reads at -(520+8f)).
const plantedOff = -520

// spec names a workload and fixes its client count, its verifier
// parallelism and what its loads feed the loader.
type spec struct {
	name string
	// clients is the number of closed-loop loaders; it never exceeds
	// the host's CPU count.
	clients int
	// parallelPaths is verifier.Config.ParallelPaths.
	parallelPaths int
	// cache selects the proving path of a load.
	cache cacheMode
}

type cacheMode int

const (
	// cacheShared: one ProofCache for every load, filled in set-up.
	cacheShared cacheMode = iota
	// cacheFresh: a new ProofCache per load.
	cacheFresh
	// cacheRemote: no local cache; a warmed in-process daemon proves
	// every round over a Unix socket, with no local fallback.
	cacheRemote
)

var specs = []spec{
	{name: "corpus-warm", clients: 2, parallelPaths: 1, cache: cacheShared},
	{name: "corpus-cold", clients: 2, parallelPaths: 1, cache: cacheFresh},
	{name: "paths", clients: 1, parallelPaths: 2, cache: cacheFresh},
	{name: "remote", clients: 2, parallelPaths: 1, cache: cacheRemote},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			s.clients = min(s.clients, runtime.NumCPU())
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// request is one generated load: the bytes or program the loader
// receives and the label the generator assigns it.
type request struct {
	name string
	obj  []byte        // ELF object (elf workloads)
	prog *ebpf.Program // generated program (paths)
	lab  label
}

// label is the known answer for a request, fixed by the generator and
// never by the verifier.
type label struct {
	// expect is the corpus family's verdict bucket (zero for ladders).
	expect corpus.Outcome
	// faults is the ladder's planted fault count; planted is the
	// instruction index of fault 0's read, the first fault the
	// sequential DFS reaches (every fork explores its fall-through, the
	// taken rung, first), or -1 for a clean ladder.
	faults, planted int
}

// inputs is the generated input set of one run: a pool of requests and
// the seeded order in which loaders draw them.
type inputs struct {
	pool []request
	seq  []int32
	// passLen is the number of requests in one pass. The sequence is a
	// run of seeded permutations of the same pass, runs measure whole
	// passes, and throughput and CPU samples span one pass each, so
	// every sample loads the same mix.
	passLen int
}

func (in *inputs) at(i int) *request { return &in.pool[in.seq[i%len(in.seq)]] }

// generate builds the inputs of a workload from the seed alone.
func generate(s spec, seed uint64) (*inputs, error) {
	in := &inputs{}
	var pass []int32
	if s.name == "paths" {
		pass = in.addLadders(rand.New(rand.NewPCG(seed, 0x6c6164646572)))
	} else {
		for _, e := range corpus.Generate() {
			if s.name == "corpus-cold" && e.Family == corpus.Loop {
				continue
			}
			obj, err := e.EmitELF()
			if err != nil {
				return nil, fmt.Errorf("emit %s: %w", e.Prog.Name, err)
			}
			pass = append(pass, int32(len(in.pool)))
			in.pool = append(in.pool, request{name: e.Prog.Name, obj: obj, lab: label{expect: e.Expect, planted: -1}})
		}
	}
	in.passLen = len(pass)
	rng := rand.New(rand.NewPCG(seed, 0x6f72646572))
	for len(in.seq) < seqLen {
		for _, j := range rng.Perm(len(pass)) {
			in.seq = append(in.seq, pass[j])
		}
	}
	return in, nil
}

// addLadders draws one paths pass into the pool and returns its pool
// indexes.
func (in *inputs) addLadders(rng *rand.Rand) []int32 {
	type key struct{ depth, tail, faults int }
	index := map[key]int32{}
	var pass []int32
	add := func(k key) {
		j, ok := index[k]
		if !ok {
			prog := corpus.ParallelStress(k.depth, k.tail, k.faults)
			j = int32(len(in.pool))
			index[k] = j
			in.pool = append(in.pool, request{name: prog.Name, prog: prog,
				lab: label{faults: k.faults, planted: plantedInsn(prog, k.faults)}})
		}
		pass = append(pass, j)
	}
	faults := func(faulted bool) int {
		if !faulted {
			return 0
		}
		return 1 + rng.IntN(ladderMaxFaults)
	}
	for r := 0; r < ladderRepeats; r++ {
		for _, d := range ladderDepths {
			for b := 0; b < tailBuckets; b++ {
				for _, faulted := range []bool{false, true} {
					add(key{depth: d, tail: b*tailStep + rng.IntN(tailStep+1), faults: faults(faulted)})
				}
			}
		}
	}
	for i := 0; i < deepPerPass; i++ {
		// Spread the deep ladders' tails over the whole range.
		add(key{depth: deepDepth, tail: i * tailBuckets * tailStep / (deepPerPass - 1), faults: faults(i%2 == 1)})
	}
	return pass
}

// plantedInsn finds fault 0's out-of-bounds stack read in a ladder.
func plantedInsn(p *ebpf.Program, faults int) int {
	if faults == 0 {
		return -1
	}
	for i, ins := range p.Insns {
		if ins.Class() == 0x01 && ins.Src == ebpf.R10 && ins.Off == plantedOff { // BPF_LDX
			return i
		}
	}
	return -1
}

// loadOptions are the loader options of one load; proving is set by the
// caller (cache or remote).
func loadOptions(s spec) loader.Options {
	limit := corpusInsnLimit
	if s.name == "paths" {
		limit = ladderInsnLimit
	}
	return loader.Options{
		EnableBCF:   true,
		Verifier:    verifier.Config{InsnLimit: limit, ParallelPaths: s.parallelPaths},
		LoadTimeout: loadTimeout,
	}
}

// verdict is what the benchmark checks of one load, from loader.Result
// or from the traced driver.
type verdict struct {
	accepted bool
	class    bcferr.Class
	// insn is the verifier error's instruction index (-1 for the insn
	// budget; -2 when the error carries no verifier.Error).
	insn      int
	rounds    int
	cex       bool
	remote    int // rounds proven remotely
	fallbacks int // remote transport failures degraded to local proving
}

func verdictOf(r *loader.Result) verdict {
	return verdict{accepted: r.Accepted, class: r.ErrClass, insn: errInsn(r.Err), rounds: r.Rounds,
		cex: r.Counterexample != nil, remote: r.RemoteProofs, fallbacks: r.RemoteFallbacks}
}

func errInsn(err error) int {
	var ve *verifier.Error
	if errors.As(err, &ve) {
		return ve.InsnIdx
	}
	return -2
}

// check compares a verdict with the request's label.
func check(s spec, lab label, v verdict) error {
	if !v.accepted && v.class != bcferr.ClassUnsafe && v.class != bcferr.ClassResourceLimit {
		return fmt.Errorf("rejection without a verdict class: %s", v.class)
	}
	if s.cache == cacheRemote {
		if v.fallbacks != 0 {
			return fmt.Errorf("%d remote fallbacks", v.fallbacks)
		}
		want := v.rounds
		if v.cex {
			want-- // the refuted round is answered remotely by a counterexample
		}
		if v.remote != want {
			return fmt.Errorf("%d of %d rounds proven remotely", v.remote, v.rounds)
		}
	}
	if s.name == "paths" {
		switch {
		case lab.faults == 0 && (!v.accepted || v.rounds != 0):
			return fmt.Errorf("clean ladder: accepted=%v rounds=%d", v.accepted, v.rounds)
		case lab.faults > 0 && (v.accepted || v.insn != lab.planted):
			return fmt.Errorf("faulted ladder: accepted=%v at insn %d, want rejection at %d", v.accepted, v.insn, lab.planted)
		}
		return nil
	}
	switch lab.expect {
	case corpus.ExpectAccept:
		if !v.accepted {
			return fmt.Errorf("want accept, got %s rejection", v.class)
		}
	case corpus.ExpectRejectWeakCond:
		if v.accepted || !v.cex {
			return fmt.Errorf("want weak-condition rejection with a counterexample (accepted=%v)", v.accepted)
		}
	case corpus.ExpectRejectInsnLimit:
		if v.accepted || v.insn != -1 {
			return fmt.Errorf("want insn-limit rejection, got accepted=%v at insn %d", v.accepted, v.insn)
		}
	case corpus.ExpectRejectUntriggered:
		if v.accepted || v.rounds != 0 {
			return fmt.Errorf("want untriggered rejection, got accepted=%v after %d rounds", v.accepted, v.rounds)
		}
	default:
		return fmt.Errorf("unlabelled request")
	}
	return nil
}

package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"bcf/internal/bcf"
	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/loader"
	"bcf/internal/proof"
	"bcf/internal/solver"
)

// Span names: one per layer boundary the traced driver calls across.
const (
	spLoad        = "load"
	spParse       = "elf.parse"
	spKernel      = "bcf.kernel" // bcf.NewSession + Session.Load, or one Session.Resume
	spUser        = "loader.user"
	spCache       = "loader.cache" // ProofCache.GetOrCompute
	spDecodeCond  = "bcfenc.decode_cond"
	spProve       = "solver.prove"
	spEncodeProof = "bcfenc.encode_proof"
	spRPC         = "proofrpc.rtt" // proofrpc.Client.ProveBytes
	spDecodeProof = "bcfenc.decode_proof"
	spCheck       = "proof.check"
)

// Span tags.
const (
	tagNone uint8 = iota
	tagRewrite
	tagBitblast
	tagCex
	tagHit
	tagMiss
	tagError
)

var tagNames = [...]string{"", "rewrite", "bitblast", "cex", "hit", "miss", "error"}

// p50Samples is the fewest samples that leave minTail beyond a median.
// A layer's metrics come from the live loads only when they called it
// at least this often (p99Samples for a layer with a p99, and
// p50Samples bit-blast proves for the solver).
const p50Samples = 2 * minTail

// maxReplay caps the captured rounds replayed after the run.
const maxReplay = 4000

// span is one call across a layer boundary.
type span struct {
	name       string
	load       int32 // request index; -1 outside a load
	parent     int32 // index of the enclosing span, -1 for a root
	start, end int64 // ns since the recorder's start
	allocs     uint64
	bytes      uint64
	size       int // bytes the call consumed (proof.check: proof size)
	tag        uint8
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory for one goroutine. Allocation counters
// are process-wide; with one client every allocation between begin and
// end belongs to the call (the kernel side runs while the driver waits).
type recorder struct {
	phase   string
	t0      time.Time
	spans   []span
	stack   []int32
	load    int32
	samples []metrics.Sample
}

func newRecorder(phase string) *recorder {
	return &recorder{phase: phase, t0: time.Now(), load: -1, samples: newAllocSamples()}
}

func (r *recorder) begin(name string) int32 {
	a, b := readAllocs(r.samples)
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, load: r.load, parent: parent,
		start: time.Since(r.t0).Nanoseconds(), allocs: a, bytes: b})
	r.stack = append(r.stack, i)
	return i
}

func (r *recorder) end(i int32, tag uint8) {
	a, b := readAllocs(r.samples)
	s := &r.spans[i]
	s.end = time.Since(r.t0).Nanoseconds()
	s.allocs, s.bytes, s.tag = a-s.allocs, b-s.bytes, tag
	r.stack = r.stack[:len(r.stack)-1]
}

// capture records the conditions of a run and the proofs they got, for
// the replay through the kernel-side decoder and checker.
type capture struct {
	conds  [][]byte
	proofs [][]byte // nil where the round was refuted or failed
	index  map[string]int32
	occ    []int32 // one entry per round, indexing conds
}

func newCapture() *capture { return &capture{index: map[string]int32{}} }

func (c *capture) add(cond, proofBytes []byte) {
	j, ok := c.index[string(cond)]
	if !ok {
		j = int32(len(c.conds))
		c.index[string(cond)] = j
		c.conds = append(c.conds, cond)
		c.proofs = append(c.proofs, proofBytes)
	}
	c.occ = append(c.occ, j)
}

func (c *capture) proven() bool {
	for _, p := range c.proofs {
		if p != nil {
			return true
		}
	}
	return false
}

// sample returns at least want occurrence indexes (cycling when the run
// captured fewer) and at most maxReplay, evenly spaced over the run.
func (c *capture) sample(want int) []int32 {
	n := len(c.occ)
	if n == 0 {
		return nil
	}
	k := min(max(n, want), maxReplay)
	out := make([]int32, k)
	for i := range out {
		if n >= k {
			out[i] = c.occ[i*n/k]
		} else {
			out[i] = c.occ[i%n]
		}
	}
	return out
}

// driver reimplements the loader's protocol loop from public calls only,
// with a span around each call into a layer.
type driver struct {
	e      *env
	rec    *recorder
	cap    *capture
	insns  int
	rounds int
	loads  int
}

func (d *driver) load(i int, r *request) (verdict, error) {
	rec := d.rec
	rec.load = int32(i)
	defer func() { rec.load = -1 }()
	root := rec.begin(spLoad)
	defer rec.end(root, tagNone)
	prog := r.prog
	if r.obj != nil {
		sp := rec.begin(spParse)
		p, err := program(r)
		rec.end(sp, tagNone)
		if err != nil {
			return verdict{}, err
		}
		prog = p
	}
	opts := d.e.options()
	ctx, cancel := context.WithTimeout(context.Background(), loadTimeout)
	defer cancel()

	var v verdict
	sp := rec.begin(spKernel)
	sess := bcf.NewSession(prog, opts.Verifier)
	lr := sess.Load()
	rec.end(sp, tagNone)
	for !lr.Done {
		if err := ctx.Err(); err != nil {
			sess.Abort()
			lr = bcf.LoadResult{Done: true, Err: bcferr.Wrap(bcferr.ClassSolverTimeout, err)}
			break
		}
		v.rounds++
		up := rec.begin(spUser)
		pb, err := d.prove(ctx, lr.Condition, opts, &v)
		rec.end(up, tagNone)
		d.cap.add(lr.Condition, pb)
		sp := rec.begin(spKernel)
		lr = sess.Resume(pb, err)
		rec.end(sp, tagNone)
	}
	v.accepted = lr.Err == nil
	v.insn = errInsn(lr.Err)
	v.class = bcferr.ClassOf(lr.Err)
	if !v.accepted && v.class == bcferr.ClassNone {
		v.class = bcferr.ClassUnsafe // the loader's default for an unclassified rejection
	}
	d.insns += sess.Verifier().Stats().InsnProcessed
	d.rounds += v.rounds
	d.loads++
	return v, nil
}

// prove answers one condition the way the workload's loader does: from
// the remote daemon, or through the proof cache in front of the solver.
func (d *driver) prove(ctx context.Context, cond []byte, opts loader.Options, v *verdict) ([]byte, error) {
	if opts.Remote != nil {
		pb, err := d.rpc(ctx, cond)
		switch {
		case err == nil:
			v.remote++
		case errors.Is(err, bcferr.ErrRemoteUnavailable):
			err = bcferr.Wrap(bcferr.ClassProtocol, err)
		case bcferr.CounterexampleOf(err) != nil:
			v.cex = true
		}
		return pb, err
	}
	sp := d.rec.begin(spCache)
	pb, hit, shared, err := opts.ProofCache.GetOrCompute(cond, func() ([]byte, error) {
		return d.solve(ctx, cond)
	})
	tag := tagMiss
	if hit || shared {
		tag = tagHit
	}
	d.rec.end(sp, tag)
	if bcferr.CounterexampleOf(err) != nil {
		v.cex = true
	}
	return pb, err
}

func (d *driver) rpc(ctx context.Context, cond []byte) ([]byte, error) {
	sp := d.rec.begin(spRPC)
	pb, err := d.e.client.ProveBytes(ctx, cond)
	tag := tagNone
	if errors.Is(err, bcferr.ErrRemoteUnavailable) {
		tag = tagError
	}
	d.rec.end(sp, tag)
	return pb, err
}

// solve is the loader's local proving path: decode, prove, encode.
func (d *driver) solve(ctx context.Context, cond []byte) ([]byte, error) {
	rec := d.rec
	sp := rec.begin(spDecodeCond)
	c, err := bcfenc.DecodeCondition(cond)
	rec.end(sp, tagNone)
	if err != nil {
		return nil, bcferr.Wrap(bcferr.ClassProtocol, err)
	}
	sp = rec.begin(spProve)
	out, err := solver.Prove(ctx, c.Cond, solver.Options{})
	tag := tagNone
	switch {
	case err != nil:
		tag = tagError
	case !out.Proven:
		tag = tagCex
	case out.Tier == solver.TierRewrite:
		tag = tagRewrite
	default:
		tag = tagBitblast
	}
	rec.end(sp, tag)
	if err != nil {
		return nil, err
	}
	if !out.Proven {
		return nil, bcferr.WithCounterexample(bcferr.New(bcferr.ClassUnsafe,
			"condition violated (counterexample found)"), out.Counterexample)
	}
	sp = rec.begin(spEncodeProof)
	pb, err := bcfenc.EncodeProof(out.Proof)
	rec.end(sp, tagNone)
	return pb, err
}

// tracedRun measures the per-layer metrics. With one client it loads
// each request twice, untraced through loader.Load and then through the
// traced driver, and cross-checks the two verdicts (and, at
// ParallelPaths 1, the round counts). Interleaving puts both loads of a
// request under the same heap and cache state, so the ratio of their
// summed times is the tracing overhead. Captured rounds are then
// replayed through bcfenc.DecodeProof and proof.Check; a layer the live
// loads did not call often enough is measured by a probe over the
// captured conditions.
func tracedRun(e *env, seed uint64, seconds float64) (result, error) {
	runtime.GC()
	d := &driver{e: e, rec: newRecorder("live"), cap: newCapture()}
	dur := time.Duration(seconds * float64(time.Second))
	var untracedNS, tracedNS int64
	failed, mismatches, n := 0, 0, 0
	for start := time.Now(); time.Since(start) < dur || n%e.in.passLen != 0; n++ {
		r := e.in.at(n)
		t0 := time.Now()
		u, err := e.load(r)
		t1 := time.Now()
		v, terr := d.load(n, r)
		untracedNS += t1.Sub(t0).Nanoseconds()
		tracedNS += time.Since(t1).Nanoseconds()
		for _, c := range []struct {
			what string
			v    verdict
			err  error
		}{{"untraced", u, err}, {"traced", v, terr}} {
			if c.err == nil {
				c.err = check(e.s, r.lab, c.v)
			}
			if c.err != nil {
				failed++
				if failed <= maxReports {
					fmt.Fprintf(os.Stderr, "perfbench: %s load %d (%s): %v\n", c.what, n, r.name, c.err)
				}
			}
		}
		if err == nil && terr == nil {
			if err := crossCheck(e.s, v, u); err != nil {
				failed++
				mismatches++
				if failed <= maxReports {
					fmt.Fprintf(os.Stderr, "perfbench: load %d (%s): %v\n", n, r.name, err)
				}
			}
		}
	}

	m, err := layerMetrics(e, d, seed)
	if err != nil {
		return result{}, err
	}
	m["trace.overhead_ratio"] = metric{float64(untracedNS) / float64(tracedNS), "ratio"}

	fmt.Printf("workload %s traced: %d loads, %.3f s untraced, %.3f s traced, %d cross-check mismatches\n",
		e.s.name, n, float64(untracedNS)/1e9, float64(tracedNS)/1e9, mismatches)
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-30s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return result{Correct: failed == 0, Attempted: 2 * n, Failed: failed, Metrics: m}, nil
}

// crossCheck compares the traced driver's verdict with loader.Load's on
// the same request. At ParallelPaths > 1 the exploration order is not a
// contract, so only the verdict and the error identity are compared.
func crossCheck(s spec, traced, untraced verdict) error {
	if traced.accepted != untraced.accepted || traced.class != untraced.class || traced.insn != untraced.insn {
		return fmt.Errorf("driver verdict (accepted=%v %s insn %d) differs from loader.Load (accepted=%v %s insn %d)",
			traced.accepted, traced.class, traced.insn, untraced.accepted, untraced.class, untraced.insn)
	}
	if s.parallelPaths == 1 && traced.rounds != untraced.rounds {
		return fmt.Errorf("driver took %d rounds, loader.Load %d", traced.rounds, untraced.rounds)
	}
	return nil
}

// layerMetrics derives the per-layer metrics from the live spans, the
// replay and the probes, and writes every span to workDir.
func layerMetrics(e *env, d *driver, seed uint64) (map[string]metric, error) {
	live := d.rec.spans
	loads := float64(d.loads)
	segs := float64(d.loads + d.rounds) // kernel segments: one Load, one per Resume

	kernel := sum(live, spKernel)
	user := sum(live, spUser)
	var loadDur, loadSelf int64
	child := childDur(live)
	for i := range live {
		if live[i].name == spLoad {
			loadDur += live[i].dur()
			loadSelf += live[i].dur() - child[i]
		}
	}

	m := map[string]metric{
		"bcf.kernel_ms_per_load":      {float64(kernel.ns) / 1e6 / loads, "ms"},
		"bcf.kernel_us_per_round":     {float64(kernel.ns) / 1e3 / segs, "us"},
		"bcf.kernel_share":            {float64(kernel.ns) / float64(kernel.ns+user.ns), "ratio"},
		"bcf.kernel_allocs_per_round": {float64(kernel.allocs) / segs, "count"},
		"verifier.insns_per_load":     {float64(d.insns) / loads, "count"},
		"verifier.ns_per_insn":        {float64(kernel.ns) / float64(d.insns), "ns"},
		"verifier.allocs_per_insn":    {float64(kernel.allocs) / float64(d.insns), "count"},
		"verifier.bytes_per_insn":     {float64(kernel.bytes) / float64(d.insns), "B"},
		"loader.rounds_per_load":      {float64(d.rounds) / loads, "count"},
		"loader.user_ms_per_load":     {float64(user.ns) / 1e6 / loads, "ms"},
		"solver.proves_per_load":      {float64(count(live, spProve)) / loads, "count"},
		"proofrpc.calls_per_load":     {float64(count(live, spRPC)) / loads, "count"},
		"trace.uncovered_ratio":       {float64(loadSelf) / float64(loadDur), "ratio"},
	}
	cache := pickSelf(live, spCache)
	m["loader.cache_hit_ratio"] = metric{ratio(cache, tagHit), "ratio"}

	// Conditions and proofs for the replay and the probes: the run's own,
	// or, when it proved none (paths), one pass over the corpus.
	src := d.cap
	var parses []span
	if !src.proven() {
		var err error
		src, parses, err = corpusCapture(seed)
		if err != nil {
			return nil, err
		}
	}
	if live := pick(live, spParse); len(live) >= p50Samples {
		parses = live
	}
	if len(parses) < p50Samples {
		return nil, fmt.Errorf("elf.parse: %d samples", len(parses))
	}
	var condSizes, proofSizes []float64
	for _, j := range src.occ {
		condSizes = append(condSizes, float64(len(src.conds[j])))
		if p := src.proofs[j]; p != nil {
			proofSizes = append(proofSizes, float64(len(p)))
		}
	}

	replay := newRecorder("replay")
	if err := replayChecks(replay, src); err != nil {
		return nil, err
	}
	probe := newRecorder("probe")
	proves := pick(live, spProve)
	if len(proves) < p99Samples || len(withTag(proves, tagBitblast)) < p50Samples {
		if err := probeSolver(probe, src); err != nil {
			return nil, err
		}
		proves = pick(probe.spans, spProve)
	}
	encodes, decodes := pick(live, spEncodeProof), pick(live, spDecodeCond)
	if len(encodes) < p50Samples || len(decodes) < p50Samples {
		encodes, decodes = pick(probe.spans, spEncodeProof), pick(probe.spans, spDecodeCond)
	}
	if len(cache) < p50Samples {
		probeCache(probe, src)
		cache = pick(probe.spans, spCache)
	}
	rpcs := pick(live, spRPC)
	if len(rpcs) < p99Samples {
		if err := probeRPC(probe, e, src); err != nil {
			return nil, err
		}
		rpcs = pick(probe.spans, spRPC)
	}

	checks := pick(replay.spans, spCheck)
	for _, q := range []struct {
		name string
		xs   []float64 // span durations in ns, or sizes in bytes
		p    float64
	}{
		{"bcf.cond_bytes_p50", condSizes, 0.5},
		{"bcf.proof_bytes_p50", proofSizes, 0.5},
		{"solver.prove_us_p50", durs(proves), 0.5},
		{"solver.prove_us_p99", durs(proves), 0.99},
		{"solver.bitblast_us_p50", durs(withTag(proves, tagBitblast)), 0.5},
		{"bcfenc.decode_cond_us_p50", durs(decodes), 0.5},
		{"bcfenc.encode_proof_us_p50", durs(encodes), 0.5},
		{"bcfenc.decode_proof_us_p50", durs(pick(replay.spans, spDecodeProof)), 0.5},
		{"proof.check_us_p50", durs(checks), 0.5},
		{"loader.cache_us_p50", durs(cache), 0.5},
		{"proofrpc.rtt_us_p50", durs(rpcs), 0.5},
		{"proofrpc.rtt_us_p99", durs(rpcs), 0.99},
		{"elf.parse_us_p50", durs(parses), 0.5},
	} {
		v, err := percentile(q.xs, q.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		if strings.Contains(q.name, "_us_") {
			m[q.name] = metric{v / 1e3, "us"}
		} else {
			m[q.name] = metric{v, "B"}
		}
	}
	proven := len(withTag(proves, tagRewrite)) + len(withTag(proves, tagBitblast))
	m["solver.rewrite_ratio"] = metric{float64(len(withTag(proves, tagRewrite))) / float64(proven), "ratio"}
	m["solver.cex_ratio"] = metric{ratio(proves, tagCex), "ratio"}
	m["solver.allocs_per_prove"] = metric{meanAllocs(proves), "count"}
	var checkNS, checkBytes int64
	for _, s := range checks {
		checkNS += s.dur()
		checkBytes += int64(s.size)
	}
	m["proof.check_ns_per_byte"] = metric{float64(checkNS) / float64(checkBytes), "ns"}
	m["proofrpc.error_ratio"] = metric{ratio(rpcs, tagError), "ratio"}
	m["elf.parse_allocs_per_object"] = metric{meanAllocs(parses), "count"}
	return m, writeSpans(e.s.name, d.rec, replay, probe)
}

// corpusCapture loads the non-loop corpus once through a traced driver
// with a fresh cache per load, for a workload whose own loads prove no
// condition.
func corpusCapture(seed uint64) (*capture, []span, error) {
	s, err := specByName("corpus-cold")
	if err != nil {
		return nil, nil, err
	}
	in, err := generate(s, seed)
	if err != nil {
		return nil, nil, err
	}
	d := &driver{e: &env{s: s, in: in}, rec: newRecorder("corpus"), cap: newCapture()}
	for i := 0; i < in.passLen; i++ {
		r := in.at(i)
		v, err := d.load(i, r)
		if err == nil {
			err = check(s, r.lab, v)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("corpus capture %s: %w", r.name, err)
		}
	}
	return d.cap, pick(d.rec.spans, spParse), nil
}

// replayChecks replays captured proofs through the kernel-side decoder
// and checker.
func replayChecks(rec *recorder, c *capture) error {
	for _, j := range c.sample(p99Samples) {
		pb := c.proofs[j]
		if pb == nil {
			continue
		}
		cond, err := bcfenc.DecodeCondition(c.conds[j])
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		sp := rec.begin(spDecodeProof)
		p, err := bcfenc.DecodeProof(pb)
		rec.end(sp, tagNone)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		sp = rec.begin(spCheck)
		err = proof.Check(cond.Cond, p)
		rec.spans[sp].size = len(pb)
		rec.end(sp, tagNone)
		if err != nil {
			return fmt.Errorf("replay: captured proof rejected: %w", err)
		}
	}
	return nil
}

// probeSolver proves captured conditions outside any load.
func probeSolver(rec *recorder, c *capture) error {
	d := &driver{rec: rec}
	for _, j := range c.sample(p99Samples) {
		if _, err := d.solve(context.Background(), c.conds[j]); err != nil && bcferr.CounterexampleOf(err) == nil {
			return fmt.Errorf("solver probe: %w", err)
		}
	}
	return nil
}

// probeCache times proof-cache hits on captured conditions.
func probeCache(rec *recorder, c *capture) {
	pc := loader.NewProofCache()
	for j, pb := range c.proofs {
		if pb != nil {
			pc.Put(c.conds[j], pb)
		}
	}
	for _, j := range c.sample(p99Samples) {
		if c.proofs[j] == nil {
			continue
		}
		sp := rec.begin(spCache)
		_, hit, _, _ := pc.GetOrCompute(c.conds[j], func() ([]byte, error) { return c.proofs[j], nil })
		tag := tagMiss
		if hit {
			tag = tagHit
		}
		rec.end(sp, tag)
	}
}

// probeRPC proves captured conditions over the wire against a warmed
// daemon, starting one when the workload has none.
func probeRPC(rec *recorder, e *env, c *capture) error {
	pe := e
	if e.srv == nil {
		pe = &env{}
		if err := pe.startDaemon(); err != nil {
			return err
		}
		defer pe.close()
	}
	d := &driver{e: pe, rec: rec}
	ctx := context.Background()
	for _, cond := range c.conds { // warm the daemon's cache
		if _, err := pe.client.ProveBytes(ctx, cond); err != nil && bcferr.CounterexampleOf(err) == nil {
			return fmt.Errorf("rpc probe: %w", err)
		}
	}
	for _, j := range c.sample(p99Samples) {
		if _, err := d.rpc(ctx, c.conds[j]); err != nil && bcferr.CounterexampleOf(err) == nil {
			return fmt.Errorf("rpc probe: %w", err)
		}
	}
	return nil
}

type total struct {
	ns, allocs, bytes int64
}

func sum(spans []span, name string) total {
	var t total
	for _, s := range spans {
		if s.name == name {
			t.ns += s.dur()
			t.allocs += int64(s.allocs)
			t.bytes += int64(s.bytes)
		}
	}
	return t
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func count(spans []span, name string) int { return len(pick(spans, name)) }

func pick(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// pickSelf is pick with each span's duration reduced to its self time,
// the part its direct children do not cover.
func pickSelf(spans []span, name string) []span {
	child := childDur(spans)
	var out []span
	for i, s := range spans {
		if s.name == name {
			s.end -= child[i]
			out = append(out, s)
		}
	}
	return out
}

func withTag(spans []span, tag uint8) []span {
	var out []span
	for _, s := range spans {
		if s.tag == tag {
			out = append(out, s)
		}
	}
	return out
}

func ratio(spans []span, tag uint8) float64 {
	if len(spans) == 0 {
		return 0
	}
	return float64(len(withTag(spans, tag))) / float64(len(spans))
}

func meanAllocs(spans []span) float64 {
	var a uint64
	for _, s := range spans {
		a += s.allocs
	}
	return float64(a) / float64(len(spans))
}

func durs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur())
	}
	return out
}

// childDur is, per span, the time its direct children cover.
func childDur(spans []span) []int64 {
	out := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			out[s.parent] += s.dur()
		}
	}
	return out
}

// writeSpans writes every span of the run, one JSON object a line.
func writeSpans(workload string, recs ...*recorder) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(workDir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range recs {
		for _, s := range r.spans {
			fmt.Fprintf(w, `{"phase":%q,"name":%q,"load":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"allocs":%d,"bytes":%d,"tag":%q}`+"\n",
				r.phase, s.name, s.load, s.parent, s.start, s.end, s.allocs, s.bytes, tagNames[s.tag])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

package main

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"bcf/internal/bcferr"
	"bcf/internal/corpus"
)

// fingerprint is the request sequence a seed produces, as the loader
// would receive it.
func fingerprint(t *testing.T, workload string, seed uint64, n int) [][]byte {
	t.Helper()
	s, err := specByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		r := in.at(i)
		if r.obj != nil {
			out[i] = r.obj
		} else {
			out[i] = []byte(r.prog.Name)
		}
	}
	return out
}

func TestSeedFixesRequestSequence(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			const n = 2048
			a, b := fingerprint(t, s.name, 7, n), fingerprint(t, s.name, 7, n)
			if !slices.EqualFunc(a, b, bytes.Equal) {
				t.Fatal("same seed gave different request sequences")
			}
			if slices.EqualFunc(a, fingerprint(t, s.name, 8, n), bytes.Equal) {
				t.Fatal("different seeds gave the same request sequence")
			}
		})
	}
}

// TestLoaderReceivesOnlyGeneratedInputs runs the closed loop and checks
// that the loads it issues are exactly the generated requests: every
// index once, whole passes, and each ELF object parsing to the corpus
// program it was emitted from.
func TestLoaderReceivesOnlyGeneratedInputs(t *testing.T) {
	s, err := specByName("corpus-warm")
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]corpus.Entry{}
	for _, e := range corpus.Generate() {
		byName[e.Prog.Name] = e
	}
	var (
		mu   sync.Mutex
		seen []int
	)
	lr := closedLoop(2, in.passLen, 0.001, func(i int) bool {
		r := in.at(i)
		prog, err := program(r)
		if err != nil {
			t.Error(err)
			return false
		}
		e, ok := byName[r.name]
		if !ok || !slices.Equal(prog.Insns, e.Prog.Insns) {
			t.Errorf("load %d: %s is not the generated corpus program", i, r.name)
		}
		mu.Lock()
		seen = append(seen, i)
		mu.Unlock()
		return true
	})
	slices.Sort(seen)
	if len(seen) == 0 || len(seen)%in.passLen != 0 || len(lr.latMS) != len(seen) {
		t.Fatalf("%d loads (%d timed), want whole passes of %d", len(seen), len(lr.latMS), in.passLen)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("load indexes %v..., want 0..%d once each", seen[:min(len(seen), 8)], len(seen)-1)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // descending: the helper must sort
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted with 9.99 samples beyond it")
	}
	xs = append(xs, 1000)
	got, err := percentile(xs, 0.99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples accepted")
	}
	if got, err := percentile(xs[:20], 0.5); err != nil || got != 989 {
		t.Fatalf("p50 of 999..980 = %v, %v; want 989", got, err)
	}
}

func TestCheckRejectsWrongVerdicts(t *testing.T) {
	corpusSpec, _ := specByName("corpus-warm")
	remoteSpec, _ := specByName("remote")
	pathsSpec, _ := specByName("paths")
	accept := label{expect: corpus.ExpectAccept, planted: -1}
	weak := label{expect: corpus.ExpectRejectWeakCond, planted: -1}
	unsafe := bcferr.ClassUnsafe
	for _, c := range []struct {
		name string
		s    spec
		lab  label
		v    verdict
		ok   bool
	}{
		{"accept", corpusSpec, accept, verdict{accepted: true}, true},
		{"accept rejected", corpusSpec, accept, verdict{class: unsafe}, false},
		{"weak with cex", corpusSpec, weak, verdict{class: unsafe, rounds: 1, cex: true}, true},
		{"weak without cex", corpusSpec, weak, verdict{class: unsafe, rounds: 1}, false},
		{"protocol class", corpusSpec, weak, verdict{class: bcferr.ClassProtocol, cex: true}, false},
		{"timeout class", corpusSpec, weak, verdict{class: bcferr.ClassSolverTimeout, cex: true}, false},
		{"insn limit", corpusSpec, label{expect: corpus.ExpectRejectInsnLimit}, verdict{class: unsafe, insn: -1}, true},
		{"insn limit elsewhere", corpusSpec, label{expect: corpus.ExpectRejectInsnLimit}, verdict{class: unsafe, insn: 7}, false},
		{"untriggered", corpusSpec, label{expect: corpus.ExpectRejectUntriggered}, verdict{class: unsafe}, true},
		{"untriggered refined", corpusSpec, label{expect: corpus.ExpectRejectUntriggered}, verdict{class: unsafe, rounds: 1}, false},
		{"remote served", remoteSpec, accept, verdict{accepted: true, rounds: 3, remote: 3}, true},
		{"remote fallback", remoteSpec, accept, verdict{accepted: true, rounds: 3, remote: 2, fallbacks: 1}, false},
		{"remote cex round", remoteSpec, weak, verdict{class: unsafe, rounds: 3, remote: 2, cex: true}, true},
		{"clean ladder", pathsSpec, label{planted: -1}, verdict{accepted: true}, true},
		{"clean ladder refined", pathsSpec, label{planted: -1}, verdict{accepted: true, rounds: 1}, false},
		{"planted fault", pathsSpec, label{faults: 2, planted: 40}, verdict{class: unsafe, insn: 40}, true},
		{"other fault", pathsSpec, label{faults: 2, planted: 40}, verdict{class: unsafe, insn: 42}, false},
	} {
		if err := check(c.s, c.lab, c.v); (err == nil) != c.ok {
			t.Errorf("%s: check = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestTracedDriverMatchesLoader runs the traced driver and loader.Load
// on the same requests: both verdicts must match the labels and each
// other, and every span must be closed inside its parent.
func TestTracedDriverMatchesLoader(t *testing.T) {
	for _, name := range []string{"corpus-cold", "paths"} {
		t.Run(name, func(t *testing.T) {
			s, err := specByName(name)
			if err != nil {
				t.Fatal(err)
			}
			in, err := generate(s, 5)
			if err != nil {
				t.Fatal(err)
			}
			e := &env{s: s, in: in}
			d := &driver{e: e, rec: newRecorder("test"), cap: newCapture()}
			for i := 0; i < 48; i++ {
				r := in.at(i)
				u, err := e.load(r)
				if err == nil {
					err = check(s, r.lab, u)
				}
				if err != nil {
					t.Fatalf("loader.Load %s: %v", r.name, err)
				}
				v, err := d.load(i, r)
				if err == nil {
					err = check(s, r.lab, v)
				}
				if err == nil {
					err = crossCheck(s, v, u)
				}
				if err != nil {
					t.Fatalf("driver %s: %v", r.name, err)
				}
			}
			if len(d.rec.stack) != 0 {
				t.Fatalf("%d spans left open", len(d.rec.stack))
			}
			for _, sp := range d.rec.spans {
				if sp.end < sp.start {
					t.Fatalf("span %s ends before it starts", sp.name)
				}
				if sp.parent >= 0 {
					p := d.rec.spans[sp.parent]
					if sp.start < p.start || sp.end > p.end || sp.load != p.load {
						t.Fatalf("span %s is not inside its parent %s", sp.name, p.name)
					}
				}
			}
			if d.loads != 48 || count(d.rec.spans, spLoad) != 48 {
				t.Fatalf("%d loads, %d load spans; want 48", d.loads, count(d.rec.spans, spLoad))
			}
		})
	}
}

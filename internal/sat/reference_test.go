package sat

import (
	"fmt"

	"bcf/internal/bcferr"
)

// The map-based CDCL solver that the dense, literal-indexed Solver
// replaced, kept verbatim (only its type names changed) as an oracle:
// on every input the new Solver must return the same Result (verdict,
// model and resolution steps) and the same errors.

type refClause struct {
	lits    []Lit
	id      int32 // proof clause id
	learned bool
}

type refWatcher struct {
	c       *refClause
	blocker Lit
}

// refSolver holds the CDCL state. Create with newRefSolver, add clauses,
// then Solve.
type refSolver struct {
	nVars    int
	clauses  []*refClause
	watches  map[Lit][]refWatcher
	assign   []int8  // per variable
	level    []int32 // decision level per variable
	pos      []int32 // trail position per variable
	reason   []*refClause
	trail    []Lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	heapIdx  []int32 // position in heap, -1 if absent
	heap     []int32 // max-heap of variables by activity
	phase    []bool

	logProof   bool
	proof      Proof
	nextID     int32
	emptySeen  bool
	conflCount int64

	// MaxConflicts bounds the search; 0 means unlimited. Exceeding it
	// makes Solve return an error (the paper's solver-timeout case).
	MaxConflicts int64
	// Interrupt, when non-nil, is polled periodically during the search;
	// a non-nil return aborts Solve with a solver-timeout error. Wire it
	// to context.Context.Err to give the search a deadline.
	Interrupt func() error
}

// newRefSolver returns a solver over nVars variables. If logProof is set, an UNSAT
// answer carries a resolution refutation.
func newRefSolver(nVars int, logProof bool) *refSolver {
	s := &refSolver{
		nVars:    nVars,
		watches:  map[Lit][]refWatcher{},
		assign:   make([]int8, nVars+1),
		level:    make([]int32, nVars+1),
		pos:      make([]int32, nVars+1),
		reason:   make([]*refClause, nVars+1),
		activity: make([]float64, nVars+1),
		heapIdx:  make([]int32, nVars+1),
		phase:    make([]bool, nVars+1),
		varInc:   1.0,
		logProof: logProof,
	}
	for v := 1; v <= nVars; v++ {
		s.heapIdx[v] = -1
		s.heapInsert(int32(v))
	}
	return s
}

func (s *refSolver) value(l Lit) int8 {
	v := s.assign[l.Var()]
	if l < 0 {
		return -v
	}
	return v
}

// AddClause adds an input clause. Duplicate literals are removed; a
// tautological clause is silently dropped but still consumes a proof id
// so the caller's clause numbering stays aligned.
func (s *refSolver) AddClause(lits ...Lit) error {
	for _, l := range lits {
		if l == 0 || l.Var() > s.nVars {
			return fmt.Errorf("sat: literal %d out of range", l)
		}
	}
	c := &refClause{lits: append([]Lit(nil), lits...), id: s.nextID}
	s.nextID++
	s.proof.NumInputs = int(s.nextID)
	seen := map[Lit]bool{}
	out := c.lits[:0]
	for _, l := range c.lits {
		if seen[l.Neg()] {
			return nil // tautology: always satisfied
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	c.lits = out
	switch len(c.lits) {
	case 0:
		s.emptySeen = true
		return nil
	case 1:
		// Unit input clause: assign at level 0 when consistent.
		s.clauses = append(s.clauses, c)
		return nil
	}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return nil
}

func (s *refSolver) watch(c *refClause) {
	s.watches[c.lits[0].Neg()] = append(s.watches[c.lits[0].Neg()], refWatcher{c: c, blocker: c.lits[1]})
	s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], refWatcher{c: c, blocker: c.lits[0]})
}

func (s *refSolver) decisionLevel() int32 { return int32(len(s.trailLim)) }

func (s *refSolver) enqueue(l Lit, from *refClause) bool {
	switch s.value(l) {
	case valTrue:
		return true
	case valFalse:
		return false
	}
	v := l.Var()
	if l > 0 {
		s.assign[v] = valTrue
	} else {
		s.assign[v] = valFalse
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.pos[v] = int32(len(s.trail))
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns a conflicting clause or nil.
func (s *refSolver) propagate() *refClause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		var confl *refClause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if confl != nil {
				kept = append(kept, ws[i:]...)
				break
			}
			if s.value(w.blocker) == valTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Normalize: false literal at position 1.
			if c.lits[0] == p.Neg() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == valTrue {
				kept = append(kept, refWatcher{c: c, blocker: c.lits[0]})
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != valFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], refWatcher{c: c, blocker: c.lits[0]})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, w)
			if s.value(c.lits[0]) == valFalse {
				confl = c
				s.qhead = len(s.trail)
			} else {
				s.enqueue(c.lits[0], c)
			}
		}
		s.watches[p] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

// ---- EVSIDS variable order (binary max-heap) ----

func (s *refSolver) heapLess(a, b int32) bool { return s.activity[a] > s.activity[b] }

func (s *refSolver) heapInsert(v int32) {
	if s.heapIdx[v] >= 0 {
		return
	}
	s.heap = append(s.heap, v)
	s.heapIdx[v] = int32(len(s.heap) - 1)
	s.heapUp(len(s.heap) - 1)
}

func (s *refSolver) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapIdx[s.heap[i]] = int32(i)
		i = p
	}
	s.heap[i] = v
	s.heapIdx[v] = int32(i)
}

func (s *refSolver) heapDown(i int) {
	v := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapIdx[s.heap[i]] = int32(i)
		i = c
	}
	s.heap[i] = v
	s.heapIdx[v] = int32(i)
}

func (s *refSolver) heapPop() int32 {
	v := s.heap[0]
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.heapIdx[v] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapIdx[last] = 0
		s.heapDown(0)
	}
	return v
}

func (s *refSolver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapIdx[v] >= 0 {
		s.heapUp(int(s.heapIdx[v]))
	}
}

func (s *refSolver) pickBranchVar() int32 {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] == valUnassigned {
			return v
		}
	}
	return 0
}

// backtrack undoes assignments above the given level.
func (s *refSolver) backtrack(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == valTrue
		s.assign[v] = valUnassigned
		s.reason[v] = nil
		s.heapInsert(int32(v))
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// logResolve records one binary resolution and returns the new clause id.
func (s *refSolver) logResolve(a, b int32, pivot int) int32 {
	if !s.logProof {
		return -1
	}
	s.proof.Steps = append(s.proof.Steps, ResStep{A: a, B: b, Pivot: int32(pivot)})
	id := s.nextID
	s.nextID++
	return id
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause, the backjump level, and the learned clause's proof id. The
// resolution chain logged along the way derives exactly the learned
// clause: level-0 literals dropped from the clause are eliminated from
// the resolvent by resolving against their unit-implication reasons.
func (s *refSolver) analyze(confl *refClause) ([]Lit, int32, int32) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	seen := make(map[int]bool)
	lvl0 := make(map[Lit]bool) // level-0 literals dropped from the clause
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	accID := confl.id
	c := confl
	for {
		for _, q := range c.lits {
			if q == p {
				continue
			}
			v := q.Var()
			if s.level[v] == 0 {
				lvl0[q] = true
				continue
			}
			if seen[v] {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Pick the next literal on the trail to resolve.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		seen[p.Var()] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Neg()
			break
		}
		c = s.reason[p.Var()]
		accID = s.logResolve(accID, c.id, p.Var())
	}
	// Eliminate dropped level-0 literals from the resolvent so the proof
	// derives the learned clause exactly.
	if s.logProof {
		accID = s.eliminateLevel0(accID, lvl0)
	}

	// Compute backjump level: the second-highest level in the clause.
	blevel := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		blevel = s.level[learnt[1].Var()]
	}
	return learnt, blevel, accID
}

// Solve runs the CDCL search.
func (s *refSolver) Solve() (Result, error) {
	if s.emptySeen {
		return Result{SAT: false, Proof: s.proofOut()}, nil
	}
	// Assert unit input clauses at level 0.
	for _, c := range s.clauses {
		if len(c.lits) == 1 {
			if !s.enqueue(c.lits[0], c) {
				// Conflicting units: resolve with the clause that implied
				// the opposite assignment to derive the empty clause.
				if other := s.reason[c.lits[0].Var()]; other != nil {
					s.logResolve(c.id, other.id, c.lits[0].Var())
				}
				return Result{SAT: false, Proof: s.proofOut()}, nil
			}
		}
	}
	if confl := s.propagate(); confl != nil {
		s.emptyFromLevel0Conflict(confl)
		return Result{SAT: false, Proof: s.proofOut()}, nil
	}

	conflictsSinceRestart := int64(0)
	restartLimit := int64(100)
	steps := int64(0)
	for {
		steps++
		if s.Interrupt != nil && steps&255 == 0 {
			if err := s.Interrupt(); err != nil {
				return Result{}, bcferr.Wrap(bcferr.ClassSolverTimeout,
					fmt.Errorf("sat: interrupted: %w", err))
			}
		}
		confl := s.propagate()
		if confl != nil {
			s.conflCount++
			conflictsSinceRestart++
			if s.MaxConflicts > 0 && s.conflCount > s.MaxConflicts {
				return Result{}, bcferr.New(bcferr.ClassSolverTimeout,
					"sat: conflict budget exhausted (%d)", s.MaxConflicts)
			}
			if s.decisionLevel() == 0 {
				s.emptyFromLevel0Conflict(confl)
				return Result{SAT: false, Proof: s.proofOut()}, nil
			}
			learnt, blevel, id := s.analyze(confl)
			s.backtrack(blevel)
			lc := &refClause{lits: learnt, id: id, learned: true}
			if len(learnt) == 0 {
				return Result{SAT: false, Proof: s.proofOut()}, nil
			}
			s.clauses = append(s.clauses, lc)
			if len(learnt) >= 2 {
				s.watch(lc)
			}
			if !s.enqueue(learnt[0], lc) {
				// Learned unit contradicts level-0: resolve to empty.
				if s.decisionLevel() == 0 {
					r := s.reason[learnt[0].Var()]
					if r != nil && s.logProof {
						s.logResolve(id, r.id, learnt[0].Var())
					}
					return Result{SAT: false, Proof: s.proofOut()}, nil
				}
			}
			s.varInc /= 0.95
			if conflictsSinceRestart > restartLimit {
				conflictsSinceRestart = 0
				restartLimit = restartLimit * 11 / 10
				s.backtrack(0)
			}
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			// All variables assigned: SAT.
			model := make([]bool, s.nVars+1)
			for i := 1; i <= s.nVars; i++ {
				model[i] = s.assign[i] == valTrue
			}
			return Result{SAT: true, Model: model}, nil
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		l := Lit(v)
		if !s.phase[v] {
			l = -l
		}
		s.enqueue(l, nil)
	}
}

// emptyFromLevel0Conflict derives the empty clause from a conflict at
// decision level 0 by resolving with the unit-implication reasons.
func (s *refSolver) emptyFromLevel0Conflict(confl *refClause) int32 {
	if !s.logProof {
		return -1
	}
	accLits := map[Lit]bool{}
	for _, l := range confl.lits {
		accLits[l] = true
	}
	return s.eliminateLevel0(confl.id, accLits)
}

func (s *refSolver) proofOut() *Proof {
	if !s.logProof {
		return nil
	}
	p := s.proof
	return &p
}

// eliminateLevel0 resolves away a set of level-0 falsified literals from
// the accumulated clause, always picking the latest-assigned literal so
// that reason antecedents (assigned strictly earlier) never re-introduce
// an already-eliminated literal. Returns the final derived clause id.
func (s *refSolver) eliminateLevel0(accID int32, pending map[Lit]bool) int32 {
	for len(pending) > 0 {
		var pick Lit
		best := int32(-1)
		for l := range pending {
			if p := s.pos[l.Var()]; p > best {
				best = p
				pick = l
			}
		}
		delete(pending, pick)
		r := s.reason[pick.Var()]
		if r == nil {
			continue
		}
		accID = s.logResolve(accID, r.id, pick.Var())
		for _, q := range r.lits {
			if q.Var() != pick.Var() {
				pending[q] = true
			}
		}
	}
	return accID
}

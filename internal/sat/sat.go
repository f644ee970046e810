// Package sat implements a CDCL SAT solver (two-watched literals, EVSIDS
// decision heuristic, first-UIP clause learning, phase saving, geometric
// restarts) that logs binary resolution refutations.
//
// BCF's user-space prover bit-blasts refinement conditions to CNF and uses
// this solver as its complete backend: a SAT answer yields a
// counterexample to the refinement condition; an UNSAT answer yields a
// resolution proof that the in-kernel checker replays in linear time
// (§4 Workload Delegation, §5 Proof Check).
package sat

import (
	"fmt"
	"slices"

	"bcf/internal/bcferr"
)

// Lit is a literal in DIMACS convention: +v asserts variable v, -v its
// negation. Variables are numbered from 1.
type Lit int32

// Var returns the literal's variable. It widens before negating, so no
// literal maps to a negative variable.
func (l Lit) Var() int {
	if v := int(l); v >= 0 {
		return v
	}
	return -int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// ResStep is one binary resolution: clause A and clause B resolved on
// Pivot (A must contain +Pivot or -Pivot, B the complement). Each step
// appends a new derived clause.
type ResStep struct {
	A, B  int32 // clause ids (inputs first, then derived in order)
	Pivot int32 // pivot variable
}

// Proof is a resolution refutation: derived clause i has id NumInputs+i;
// the final derived clause must be empty.
type Proof struct {
	NumInputs int
	Steps     []ResStep
}

// Result of Solve.
type Result struct {
	SAT   bool
	Model []bool // indexed by variable (1-based; index 0 unused) when SAT
	Proof *Proof // refutation when UNSAT and proof logging is enabled
}

const (
	valUnassigned int8 = 0
	valTrue       int8 = 1
	valFalse      int8 = -1
)

// Index maps a literal to its slot in a literal-indexed array: 2·var
// for +var, 2·var+1 for -var. An array over variables 1..n has 2(n+1)
// slots.
func (l Lit) Index() int {
	if l < 0 {
		return 2*int(-l) + 1
	}
	return 2 * int(l)
}

type clause struct {
	lits    []Lit
	id      int32 // proof clause id
	learned bool
}

type watcher struct {
	c       *clause
	blocker Lit
}

// Solver holds the CDCL state. Create with New, size the input slabs
// with Reserve when the clause counts are known, add clauses, then
// Solve.
type Solver struct {
	nVars    int
	clauses  []*clause
	watched  int         // clauses[:watched] have their watches attached
	watches  [][]watcher // indexed by Lit.Index
	assign   []int8      // per variable
	level    []int32     // decision level per variable
	reason   []*clause
	trail    []Lit
	trailLim []int32
	qhead    int

	// mark is per-literal scratch, all zero between calls: AddClause
	// uses it as a set, watchInputs as per-literal watch counts.
	mark []int32
	// seen and lvl0 are analyze's per-variable scratch: variables
	// already in the learned clause, and level-0 variables whose
	// literals are pending elimination from the resolvent.
	seen []bool
	lvl0 []bool

	// Input clauses and their literals, carved from slabs sized by
	// Reserve; an input that does not fit is allocated on its own.
	clauseSlab []clause
	litSlab    []Lit

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

// New returns a solver over nVars variables. If logProof is set, an UNSAT
// answer carries a resolution refutation.
func New(nVars int, logProof bool) *Solver {
	n := nVars + 1
	// The per-variable and per-literal arrays of one element type share
	// a backing array. The trail, the decision levels and the heap
	// never hold more than nVars entries, so they never grow.
	i32 := make([]int32, 2*n+2*nVars+2*n)
	flags := make([]bool, 3*n)
	s := &Solver{
		nVars:    nVars,
		watches:  make([][]watcher, 2*n),
		assign:   make([]int8, n),
		reason:   make([]*clause, n),
		activity: make([]float64, n),
		trail:    make([]Lit, 0, nVars),
		level:    i32[0:n:n],
		heapIdx:  i32[n : 2*n : 2*n],
		heap:     i32[2*n : 2*n : 2*n+nVars],
		trailLim: i32[2*n+nVars : 2*n+nVars : 2*n+2*nVars],
		mark:     i32[2*n+2*nVars:],
		seen:     flags[0:n:n],
		lvl0:     flags[n : 2*n : 2*n],
		phase:    flags[2*n:],
		varInc:   1.0,
		logProof: logProof,
	}
	for v := 1; v <= nVars; v++ {
		s.heapIdx[v] = -1
		s.heapInsert(int32(v))
	}
	return s
}

// Reserve sizes the input slabs for the given number of clauses and
// total literals, so that adding them allocates nothing. Call it before
// the AddClause loop; inputs beyond the reservation are allocated one
// by one.
func (s *Solver) Reserve(clauses, lits int) {
	s.clauseSlab = make([]clause, 0, clauses)
	s.litSlab = make([]Lit, 0, lits)
	s.clauses = slices.Grow(s.clauses, clauses)
}

func (s *Solver) value(l Lit) int8 {
	v := s.assign[l.Var()]
	if l < 0 {
		return -v
	}
	return v
}

// AddClause adds an input clause. Duplicate literals are removed; a
// tautological clause is silently dropped but still consumes a proof id
// so the caller's clause numbering stays aligned. A literal whose
// variable lies outside 1..nVars is an error.
func (s *Solver) AddClause(lits ...Lit) error {
	for _, l := range lits {
		if v := l.Var(); v < 1 || v > s.nVars {
			return fmt.Errorf("sat: literal %d out of range", l)
		}
	}
	id := s.nextID
	s.nextID++
	s.proof.NumInputs = int(s.nextID)
	buf, inSlab := s.litSlab, true
	if cap(buf)-len(buf) < len(lits) {
		buf, inSlab = make([]Lit, 0, len(lits)), false
	}
	base := len(buf)
	taut := false
	for _, l := range lits {
		if s.mark[l.Neg().Index()] != 0 {
			taut = true // always satisfied
			break
		}
		if s.mark[l.Index()] == 0 {
			s.mark[l.Index()] = 1
			buf = append(buf, l)
		}
	}
	out := buf[base:len(buf):len(buf)]
	for _, l := range out {
		s.mark[l.Index()] = 0
	}
	if taut {
		return nil
	}
	if inSlab {
		s.litSlab = buf
	}
	if len(out) == 0 {
		s.emptySeen = true
		return nil
	}
	// Unit input clauses are asserted at level 0 by Solve; longer ones
	// get their watches there too, in clause order.
	s.clauses = append(s.clauses, s.newInput(out, id))
	return nil
}

// newInput returns an input clause, from the clause slab while it has
// room.
func (s *Solver) newInput(lits []Lit, id int32) *clause {
	n := len(s.clauseSlab)
	if n == cap(s.clauseSlab) {
		return &clause{lits: lits, id: id}
	}
	s.clauseSlab = s.clauseSlab[:n+1]
	c := &s.clauseSlab[n]
	*c = clause{lits: lits, id: id}
	return c
}

func (s *Solver) watch(c *clause) {
	w0, w1 := c.lits[0].Neg().Index(), c.lits[1].Neg().Index()
	s.watches[w0] = append(s.watches[w0], watcher{c: c, blocker: c.lits[1]})
	s.watches[w1] = append(s.watches[w1], watcher{c: c, blocker: c.lits[0]})
}

// watchInputs attaches the watches of the input clauses added since the
// last Solve. The watches are appended in clause order, the order in
// which attaching them one by one in AddClause would leave them, so the
// search visits them identically. Every list that gains n watches is
// carved from one slab, with n/2 more slots of headroom for the watches
// the search moves onto it.
func (s *Solver) watchInputs() {
	pending := s.clauses[s.watched:]
	s.watched = len(s.clauses)
	cnt := s.mark
	for _, c := range pending {
		if len(c.lits) >= 2 {
			cnt[c.lits[0].Neg().Index()]++
			cnt[c.lits[1].Neg().Index()]++
		}
	}
	room := func(i int) int {
		n := int(cnt[i])
		return len(s.watches[i]) + n + (n+1)/2
	}
	total := 0
	for i, n := range cnt {
		if n != 0 {
			total += room(i)
		}
	}
	if total == 0 {
		return
	}
	slab := make([]watcher, total)
	for i, n := range cnt {
		if n == 0 {
			continue
		}
		end := room(i)
		s.watches[i] = slab[:copy(slab, s.watches[i]):end]
		slab = slab[end:]
		cnt[i] = 0
	}
	for _, c := range pending {
		if len(c.lits) >= 2 {
			s.watch(c)
		}
	}
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

func (s *Solver) enqueue(l Lit, from *clause) bool {
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
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns a conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p.Index()]
		kept := ws[:0]
		var confl *clause
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
				kept = append(kept, watcher{c: c, blocker: c.lits[0]})
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != valFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					w1 := c.lits[1].Neg().Index()
					s.watches[w1] = append(s.watches[w1], watcher{c: c, blocker: c.lits[0]})
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
		s.watches[p.Index()] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

// ---- EVSIDS variable order (binary max-heap) ----

func (s *Solver) heapLess(a, b int32) bool { return s.activity[a] > s.activity[b] }

func (s *Solver) heapInsert(v int32) {
	if s.heapIdx[v] >= 0 {
		return
	}
	s.heap = append(s.heap, v)
	s.heapIdx[v] = int32(len(s.heap) - 1)
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapUp(i int) {
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

func (s *Solver) heapDown(i int) {
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

func (s *Solver) heapPop() int32 {
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

func (s *Solver) bumpVar(v int) {
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

func (s *Solver) pickBranchVar() int32 {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] == valUnassigned {
			return v
		}
	}
	return 0
}

// backtrack undoes assignments above the given level.
func (s *Solver) backtrack(lvl int32) {
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
func (s *Solver) logResolve(a, b int32, pivot int) int32 {
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
func (s *Solver) analyze(confl *clause) ([]Lit, int32, int32) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	seen := s.seen
	n0 := 0 // level-0 variables marked in s.lvl0, dropped from the clause
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
				if s.logProof && !s.lvl0[v] {
					s.lvl0[v] = true
					n0++
				}
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
	// Every current-level variable was unmarked when it was resolved on;
	// the lower-level ones are the rest of the learned clause.
	for _, q := range learnt[1:] {
		seen[q.Var()] = false
	}
	// Eliminate dropped level-0 literals from the resolvent so the proof
	// derives the learned clause exactly.
	if s.logProof {
		accID = s.eliminateLevel0(accID, n0)
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
func (s *Solver) Solve() (Result, error) {
	if s.emptySeen {
		return Result{SAT: false, Proof: s.proofOut()}, nil
	}
	s.watchInputs()
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
			lc := &clause{lits: learnt, id: id, learned: true}
			if len(learnt) == 0 {
				return Result{SAT: false, Proof: s.proofOut()}, nil
			}
			s.clauses = append(s.clauses, lc)
			s.watched = len(s.clauses)
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
func (s *Solver) emptyFromLevel0Conflict(confl *clause) int32 {
	if !s.logProof {
		return -1
	}
	n := 0
	for _, l := range confl.lits {
		if v := l.Var(); !s.lvl0[v] {
			s.lvl0[v] = true
			n++
		}
	}
	return s.eliminateLevel0(confl.id, n)
}

func (s *Solver) proofOut() *Proof {
	if !s.logProof {
		return nil
	}
	p := s.proof
	return &p
}

// eliminateLevel0 resolves away the n level-0 falsified literals whose
// variables are marked in s.lvl0 from the accumulated clause, always
// picking the latest-assigned one so that reason antecedents (assigned
// strictly earlier) never re-introduce an already-eliminated literal.
// Walking the level-0 trail backwards visits them in exactly that
// order, and unmarks each as it goes. Returns the final derived clause
// id.
func (s *Solver) eliminateLevel0(accID int32, n int) int32 {
	i := len(s.trail)
	if len(s.trailLim) > 0 {
		i = int(s.trailLim[0])
	}
	for n > 0 {
		i--
		v := s.trail[i].Var()
		if !s.lvl0[v] {
			continue
		}
		s.lvl0[v] = false
		n--
		r := s.reason[v]
		if r == nil {
			continue
		}
		accID = s.logResolve(accID, r.id, v)
		for _, q := range r.lits {
			if u := q.Var(); u != v && !s.lvl0[u] {
				s.lvl0[u] = true
				n++
			}
		}
	}
	return accID
}

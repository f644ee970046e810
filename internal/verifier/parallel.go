package verifier

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bcf/internal/obs"
)

// Parallel path exploration.
//
// When Config.ParallelPaths > 1 the verifier replaces its LIFO branch
// stack with a work-stealing frontier drained by a fixed pool of
// workers. Correctness rests on three invariants:
//
//  1. Every branchItem carries a pathOrder, a coordinate in the order
//     the sequential DFS would have popped it. orderBefore compares two
//     coordinates without materializing the global order.
//  2. An explored-state entry only prunes walks ordered after the walk
//     that recorded it (see pruned in prune.go). Combined with the
//     monotone transfer functions and anti-monotone checks, this keeps
//     the accept/reject verdict identical to the sequential run.
//  3. Workers never return an error early; they record (error, order)
//     candidates, and Verify reports the minimum-order candidate — the
//     error the sequential DFS would have hit first.
//
// Cloned states share nothing mutable across workers: VState.clone
// copies the stack into the clone's own backing array (it is the only
// legal way to copy a state), pathNode chains are immutable after
// construction, and pushed branches get their own node.

// pathOrder locates a branch item in sequential DFS order. The k-th
// branch pushed during one walk gets seq k under that walk's coordinate;
// because the sequential DFS pops LIFO, a higher seq is explored
// *earlier* among siblings, and a child subtree is explored entirely
// before any earlier-pushed sibling.
type pathOrder struct {
	parent *pathOrder
	depth  int32
	seq    int32
	// open counts the unfinished walks in this coordinate's subtree: 1
	// for its own walk while running, plus one per direct child whose
	// subtree is still open. Zero means every descendant has finished —
	// the point at which this walk's pruning-table entries become
	// visible to walks outside the subtree (see pruned). Maintained only
	// under parallel exploration.
	open atomic.Int32
}

// orderFinish retires one walk: its own count drops, and each subtree
// that thereby closes propagates the close to its parent.
func orderFinish(o *pathOrder) {
	for o != nil && o.open.Add(-1) == 0 {
		o = o.parent
	}
}

// orderBefore reports whether the sequential DFS explores a no later
// than b. Equal coordinates compare true (a walk is "no later" than
// itself, which lets a walk see its own recorded prune entries on loop
// revisits).
func orderBefore(a, b *pathOrder) bool {
	sa, sb := int32(-1), int32(-1)
	for a.depth > b.depth {
		sa, a = a.seq, a.parent
	}
	for b.depth > a.depth {
		sb, b = b.seq, b.parent
	}
	for a != b {
		sa, sb = a.seq, b.seq
		a, b = a.parent, b.parent
	}
	if sa < 0 {
		return true // a is b, or an ancestor of b: explored first
	}
	if sb < 0 {
		return false // b is a strict ancestor of a
	}
	// Siblings under the common ancestor: the later-pushed child pops
	// first off the sequential LIFO stack.
	return sa > sb
}

// candidate is a recorded path error plus where it sits in DFS order.
type candidate struct {
	err   error
	order *pathOrder
}

// recordCandidate keeps the minimum-order error seen so far.
func (v *Verifier) recordCandidate(err error, order *pathOrder) {
	for {
		cur := v.best.Load()
		if cur != nil && orderBefore(cur.order, order) {
			return
		}
		if v.best.CompareAndSwap(cur, &candidate{err: err, order: order}) {
			return
		}
	}
}

// outranked reports whether a candidate error ordered before order
// already exists, meaning the sequential DFS would have stopped before
// reaching this path: its outcome can no longer influence the result.
func (v *Verifier) outranked(order *pathOrder) bool {
	b := v.best.Load()
	return b != nil && orderBefore(b.order, order)
}

// frontier is the shared work pool: one LIFO deque per worker plus a
// steal path. A single mutex guards all deques — walks are orders of
// magnitude longer than a push/pop, so contention here is negligible and
// the simple invariants are easy to keep race-free.
type frontier struct {
	mu      sync.Mutex
	cond    sync.Cond
	deques  [][]branchItem
	pending int // queued + in-flight items; 0 after the root push means done
	queued  int
	peak    int
}

func newFrontier(workers int) *frontier {
	f := &frontier{deques: make([][]branchItem, workers)}
	f.cond.L = &f.mu
	return f
}

// push queues it on worker w's deque.
func (f *frontier) push(w int, it branchItem) {
	f.mu.Lock()
	f.deques[w] = append(f.deques[w], it)
	f.pending++
	f.queued++
	if f.queued > f.peak {
		f.peak = f.queued
	}
	f.mu.Unlock()
	f.cond.Signal()
}

// pop returns the newest item of worker w's own deque (preserving DFS
// locality), or steals the *oldest* item of the fullest victim deque —
// the item closest to the DFS root, hence the largest untouched subtree.
// It blocks while the frontier is empty but work is still in flight, and
// returns ok=false once everything has drained.
func (f *frontier) pop(w int) (branchItem, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if d := f.deques[w]; len(d) > 0 {
			it := d[len(d)-1]
			d[len(d)-1] = branchItem{}
			f.deques[w] = d[:len(d)-1]
			f.queued--
			return it, true
		}
		victim := -1
		for i := range f.deques {
			if len(f.deques[i]) > 0 && (victim < 0 || len(f.deques[i]) > len(f.deques[victim])) {
				victim = i
			}
		}
		if victim >= 0 {
			it := f.deques[victim][0]
			f.deques[victim][0] = branchItem{}
			f.deques[victim] = f.deques[victim][1:]
			f.queued--
			return it, true
		}
		if f.pending == 0 {
			return branchItem{}, false
		}
		f.cond.Wait()
	}
}

// done retires one in-flight item; the last retirement wakes all waiters
// so they observe completion.
func (f *frontier) done() {
	f.mu.Lock()
	f.pending--
	finished := f.pending == 0
	f.mu.Unlock()
	if finished {
		f.cond.Broadcast()
	}
}

// verifierWorkerTIDBase spaces parallel path workers away from the
// loader/kernel thread IDs in the Perfetto trace.
const verifierWorkerTIDBase = 10

// verifyParallel drains the branch frontier with cfg.ParallelPaths
// workers and reports the minimum-order outcome.
func (v *Verifier) verifyParallel(root branchItem) error {
	workers := v.cfg.ParallelPaths
	f := newFrontier(workers)
	root.order.open.Store(1)
	f.push(0, root)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v.pathWorker(f, w)
		}(w)
	}
	wg.Wait()
	if p := int64(f.peak); p > v.peakFrontier.Load() {
		v.peakFrontier.Store(p)
	}
	if b := v.best.Load(); b != nil {
		// A real path error always wins over budget exhaustion: the
		// parallel run can only error where the sequential run errors,
		// and the sequential run stops there before burning the rest of
		// its budget.
		return b.err
	}
	if v.budgetHit.Load() {
		return v.budgetErr
	}
	return nil
}

func (v *Verifier) pathWorker(f *frontier, w int) {
	tr := v.cfg.Trace
	if tr != nil {
		tr = tr.WithThread(verifierWorkerTIDBase+w, fmt.Sprintf("verifier worker %d", w))
	}
	push := func(it branchItem) { f.push(w, it) }
	for {
		item, ok := f.pop(w)
		if !ok {
			return
		}
		if v.outranked(item.order) {
			// The sequential DFS would have stopped on an earlier error
			// before popping this item: drop it unexplored (it forked no
			// children, so retiring it closes its subtree).
			releaseState(item.st)
			orderFinish(item.order)
			f.done()
			continue
		}
		v.pathsExplored.Add(1)
		var err error
		if tr != nil {
			sp := tr.StartArgs(obs.CatVerifier, "path",
				map[string]any{"pc": item.pc, "depth": int(item.order.depth)})
			err = v.walk(item, push)
			sp.End()
		} else {
			err = v.walk(item, push)
		}
		if err != nil && err != v.budgetErr {
			v.recordCandidate(err, item.order)
		}
		orderFinish(item.order)
		f.done()
	}
}

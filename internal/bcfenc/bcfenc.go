// Package bcfenc implements the BCF binary wire format: the compact
// u32-based encoding used to ship refinement conditions to user space and
// proofs back into the kernel (§5 "BCF Format").
//
// Messages are little-endian u32 streams. Expressions live in a pool:
// each node is a header word (op, width, aux, argument count) followed by
// its payload; nested expressions are referenced by the offset of their
// header relative to the pool start, so shared subterms are encoded once.
// Proof steps likewise reference their premises by step index, and — as
// in the paper — conclusions are omitted entirely: the checker recomputes
// them, which keeps proofs small.
package bcfenc

import (
	"encoding/binary"
	"fmt"

	"bcf/internal/expr"
	"bcf/internal/proof"
)

// Message kind magics.
const (
	MagicCondition = 0x42434631 // "BCF1"
	MagicProof     = 0x42434650 // "BCFP"
)

// Version is the wire format version.
const Version = 1

// limits for the decoder (kernel-side hardening).
const (
	maxPoolWords = 1 << 22
	maxSteps     = 1 << 21
	maxNodeArgs  = 4
)

// ---- u32 stream helpers ----

// headerBytes is the size of both message headers: magic, version and
// two length/root words.
const headerBytes = 16

type writer struct {
	buf []byte
}

func (w *writer) u32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

func (w *writer) u64(v uint64) {
	w.u32(uint32(v))
	w.u32(uint32(v >> 32))
}

// header fills the four header words reserved at the start of buf.
func header(buf []byte, magic, version, a, b uint32) {
	binary.LittleEndian.PutUint32(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	binary.LittleEndian.PutUint32(buf[8:], a)
	binary.LittleEndian.PutUint32(buf[12:], b)
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, fmt.Errorf("bcfenc: truncated message")
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

// pool consumes n words and returns a reader over them, decoding in
// place from the message bytes.
func (r *reader) pool(n int) (poolReader, error) {
	if n > (len(r.buf)-r.off)/4 {
		return poolReader{}, fmt.Errorf("bcfenc: truncated message")
	}
	b := r.buf[r.off : r.off+4*n]
	r.off += 4 * n
	return poolReader{buf: b, nodes: make([]*expr.Expr, n)}, nil
}

// ---- expression pool ----

// pool encodes expressions with structural deduplication. The pool's
// words follow a reserved message header in w.
type pool struct {
	w       writer
	heads   map[uint64]int32 // structural hash -> 1 + index of its newest entry
	entries []poolEntry
}

type poolEntry struct {
	node *expr.Expr
	off  uint32 // word offset of the node header within the pool
	next int32  // 1 + index of the previous entry with the same hash; 0 ends the chain
}

// newPool returns a pool whose buffer starts with a zeroed message
// header, with room for about nodes nodes.
func newPool(nodes int) *pool {
	return &pool{
		// No node takes more than three words.
		w:       writer{buf: make([]byte, headerBytes, headerBytes+12*nodes)},
		heads:   make(map[uint64]int32, nodes),
		entries: make([]poolEntry, 0, nodes),
	}
}

// words returns the pool's length in words.
func (p *pool) words() uint32 { return uint32((len(p.w.buf) - headerBytes) / 4) }

// nodeHeader packs op, width, aux and arg count into one word.
func nodeHeader(e *expr.Expr) uint32 {
	return uint32(e.Op) | uint32(e.Width)<<8 | uint32(e.Aux)<<16 | uint32(len(e.Args))<<24
}

// put encodes a node (and transitively its children), returning its word
// offset within the pool.
func (p *pool) put(e *expr.Expr) uint32 {
	h := e.Hash()
	for i := p.heads[h]; i != 0; i = p.entries[i-1].next {
		if ent := &p.entries[i-1]; expr.Equal(ent.node, e) {
			return ent.off
		}
	}
	// Children first so references always point backward.
	var offBuf [2]uint32
	argOffs := offBuf[:0]
	for _, a := range e.Args {
		argOffs = append(argOffs, p.put(a))
	}
	off := p.words()
	p.w.u32(nodeHeader(e))
	switch e.Op {
	case expr.OpConst:
		p.w.u64(e.K)
	case expr.OpVar:
		p.w.u32(uint32(e.K))
	}
	for _, ao := range argOffs {
		p.w.u32(ao)
	}
	p.entries = append(p.entries, poolEntry{node: e, off: off, next: p.heads[h]})
	p.heads[h] = int32(len(p.entries))
	return off
}

// poolReader decodes an expression pool.
type poolReader struct {
	buf   []byte       // the pool's words, little-endian
	nodes []*expr.Expr // word offset -> decoded node
}

func (pr *poolReader) word(i uint32) uint32 {
	return binary.LittleEndian.Uint32(pr.buf[4*i:])
}

// node decodes the node at the given word offset, with cycle and bounds
// protection (references must point strictly backward). Each node is
// built once, through the expr constructors, and validated there.
func (pr *poolReader) node(off uint32) (*expr.Expr, error) {
	n := uint32(len(pr.nodes))
	if off >= n {
		return nil, fmt.Errorf("bcfenc: node offset %d out of range", off)
	}
	if e := pr.nodes[off]; e != nil {
		return e, nil
	}
	h := pr.word(off)
	op := expr.Op(h & 0xff)
	width := uint8(h >> 8)
	aux := uint8(h >> 16)
	nargs := int(h >> 24)
	if nargs > maxNodeArgs {
		return nil, fmt.Errorf("bcfenc: node arity %d too large", nargs)
	}
	cur := off + 1
	var k uint64
	switch op {
	case expr.OpConst:
		if cur+2 > n {
			return nil, fmt.Errorf("bcfenc: truncated const")
		}
		k = uint64(pr.word(cur)) | uint64(pr.word(cur+1))<<32
		cur += 2
	case expr.OpVar:
		if cur+1 > n {
			return nil, fmt.Errorf("bcfenc: truncated var")
		}
		k = uint64(pr.word(cur))
		cur++
	}
	var argBuf [maxNodeArgs]*expr.Expr
	args := argBuf[:nargs]
	for i := range args {
		if cur >= n {
			return nil, fmt.Errorf("bcfenc: truncated args")
		}
		ref := pr.word(cur)
		cur++
		if ref >= off {
			return nil, fmt.Errorf("bcfenc: forward/self node reference")
		}
		child, err := pr.node(ref)
		if err != nil {
			return nil, err
		}
		args[i] = child
	}
	// A const or var header that carries operands still decodes as the
	// bare leaf, as it always has; its operands were validated above.
	var e *expr.Expr
	switch op {
	case expr.OpConst:
		e = expr.Const(k, width)
	case expr.OpVar:
		e = expr.Var(uint32(k), width)
	default:
		e = expr.Rebuild(op, width, aux, 0, args)
	}
	if err := e.CheckWellFormed(); err != nil {
		return nil, fmt.Errorf("bcfenc: node at %d: %w", off, err)
	}
	pr.nodes[off] = e
	return e, nil
}

// ---- condition messages ----

// Condition is the kernel→user message: the refinement condition to be
// proven, plus bookkeeping that ties the proof back to the request.
type Condition struct {
	Cond *expr.Expr
}

// EncodeCondition serializes a refinement condition.
func EncodeCondition(c *Condition) ([]byte, error) {
	if c.Cond == nil || c.Cond.Width != 1 {
		return nil, fmt.Errorf("bcfenc: condition must be a boolean term")
	}
	if err := c.Cond.CheckWellFormed(); err != nil {
		return nil, err
	}
	// The tree size bounds the node count; the cap keeps a heavily
	// shared condition from reserving room for its unfolded tree.
	p := newPool(min(c.Cond.SizeBound(), 64))
	root := p.put(c.Cond)
	header(p.w.buf, MagicCondition, Version, p.words(), root)
	return p.w.buf, nil
}

// DecodeCondition parses a condition message.
func DecodeCondition(buf []byte) (*Condition, error) {
	r := &reader{buf: buf}
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != MagicCondition {
		return nil, fmt.Errorf("bcfenc: bad condition magic %#x", magic)
	}
	ver, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("bcfenc: unsupported version %d", ver)
	}
	poolLen, err := r.u32()
	if err != nil {
		return nil, err
	}
	if poolLen > maxPoolWords {
		return nil, fmt.Errorf("bcfenc: pool too large")
	}
	root, err := r.u32()
	if err != nil {
		return nil, err
	}
	pr, err := r.pool(int(poolLen))
	if err != nil {
		return nil, err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("bcfenc: trailing bytes")
	}
	cond, err := pr.node(root)
	if err != nil {
		return nil, err
	}
	if cond.Width != 1 {
		return nil, fmt.Errorf("bcfenc: condition root is not boolean")
	}
	return &Condition{Cond: cond}, nil
}

// ---- proof messages ----

// step flag layout: rule (16 bits) | nprems (8) | nargs (4) | extras (4).
const (
	stepExtraPivot  = 1
	stepExtraClause = 2
)

// EncodeProof serializes a proof.
func EncodeProof(p *proof.Proof) ([]byte, error) {
	pool := newPool(0)
	var steps writer
	for i := range p.Steps {
		s := &p.Steps[i]
		if len(s.Premises) > 255 || len(s.Args) > 15 {
			return nil, fmt.Errorf("bcfenc: step %d too wide", i)
		}
		var offBuf [15]uint32
		argOffs := offBuf[:len(s.Args)]
		for j, a := range s.Args {
			if a == nil {
				return nil, fmt.Errorf("bcfenc: step %d: nil arg", i)
			}
			argOffs[j] = pool.put(a)
		}
		extras, extra := uint32(0), uint32(0)
		switch s.Rule {
		case proof.RuleResolve:
			extras, extra = stepExtraPivot, uint32(s.Pivot)
		case proof.RuleBitblastClause:
			extras, extra = stepExtraClause, uint32(s.ClauseIdx)
		}
		steps.u32(uint32(s.Rule) | uint32(len(s.Premises))<<16 | uint32(len(s.Args))<<24 | extras<<28)
		for _, pm := range s.Premises {
			steps.u32(pm)
		}
		for _, ao := range argOffs {
			steps.u32(ao)
		}
		if extras != 0 {
			steps.u32(extra)
		}
	}
	buf := append(pool.w.buf, steps.buf...)
	header(buf, MagicProof, Version, pool.words(), uint32(len(p.Steps)))
	return buf, nil
}

// scanSteps walks up to n step headers in b without decoding them. It
// returns how many headers it could read and the premise and argument
// words they declare, so DecodeProof sizes its slabs exactly. Every
// count is bounded by len(b), whatever the message claims.
func scanSteps(b []byte, n uint32) (steps, prems, args int) {
	for off := 0; uint32(steps) < n && off+4 <= len(b); steps++ {
		head := binary.LittleEndian.Uint32(b[off:])
		np, na := int(head>>16&0xff), int(head>>24&0xf)
		prems += np
		args += na
		off += 4 * (1 + np + na)
		if head>>28 != 0 {
			off += 4
		}
	}
	return steps, prems, args
}

// DecodeProof parses a proof message. Step premises and arguments are
// carved out of one slab each, capped so that appending to a step's
// slice never reaches into the next step's.
func DecodeProof(buf []byte) (*proof.Proof, error) {
	r := &reader{buf: buf}
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != MagicProof {
		return nil, fmt.Errorf("bcfenc: bad proof magic %#x", magic)
	}
	ver, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("bcfenc: unsupported version %d", ver)
	}
	poolLen, err := r.u32()
	if err != nil {
		return nil, err
	}
	nSteps, err := r.u32()
	if err != nil {
		return nil, err
	}
	if poolLen > maxPoolWords || nSteps > maxSteps {
		return nil, fmt.Errorf("bcfenc: message too large")
	}
	pr, err := r.pool(int(poolLen))
	if err != nil {
		return nil, err
	}
	nHeads, nPrems, nArgs := scanSteps(r.buf[r.off:], nSteps)
	steps := make([]proof.Step, nHeads)
	premSlab := make([]uint32, nPrems)
	argSlab := make([]*expr.Expr, nArgs)
	for i := uint32(0); i < nSteps; i++ {
		head, err := r.u32()
		if err != nil {
			return nil, err
		}
		nprems := int(head >> 16 & 0xff)
		nargs := int(head >> 24 & 0xf)
		extras := head >> 28
		s := &steps[i]
		s.Rule = proof.RuleID(head & 0xffff)
		if nprems > 0 {
			s.Premises, premSlab = premSlab[:nprems:nprems], premSlab[nprems:]
			for j := range s.Premises {
				if s.Premises[j], err = r.u32(); err != nil {
					return nil, err
				}
			}
		}
		if nargs > 0 {
			s.Args, argSlab = argSlab[:nargs:nargs], argSlab[nargs:]
			for j := range s.Args {
				ao, err := r.u32()
				if err != nil {
					return nil, err
				}
				if s.Args[j], err = pr.node(ao); err != nil {
					return nil, err
				}
			}
		}
		if extras != 0 {
			ex, err := r.u32()
			if err != nil {
				return nil, err
			}
			switch extras {
			case stepExtraPivot:
				s.Pivot = int32(ex)
			case stepExtraClause:
				s.ClauseIdx = int32(ex)
			default:
				return nil, fmt.Errorf("bcfenc: step %d: unknown extra kind", i)
			}
		}
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("bcfenc: trailing bytes")
	}
	return &proof.Proof{Steps: steps}, nil
}

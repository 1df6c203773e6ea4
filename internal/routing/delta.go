package routing

import "math/bits"

// Delta resolution computes projected routing trees by change
// propagation instead of re-resolution. A node's decision depends only
// on its own flags and the Secure flags of its tiebreak candidates
// (strictly shorter nodes), so flipping a small set of nodes can only
// alter the decisions of the flipped nodes themselves plus,
// transitively, the *dependents* of every node whose Secure flag
// actually changed — where the dependents of b are the nodes listing b
// in their tiebreak set. ApplyFlips walks exactly that affected set in
// ascending order position, which for typical flip sets is a vanishing
// fraction of the graph (most projections die after a handful of
// nodes), and an undo log restores the base tree afterwards in
// O(touched).

// undoEntry records one node's pre-flip tree entry.
type undoEntry struct {
	node   int32
	parent int32
	secure bool
}

// PrepareDelta builds the dependents index for the given static info —
// the transpose of the tiebreak adjacency — plus the propagation
// scratch. Call it after ComputeStatic or PrepareDest and before the
// first ApplyFlips. The index is stored on the Static itself (it is as
// state-independent as the rest of it); repeated calls on a Static that
// already carries the index — a cached snapshot resolved round after
// round — are O(1) no-ops.
func (w *Workspace) PrepareDelta(s *Static) {
	n := w.g.N()
	if len(w.revCur) < n {
		w.revCur = make([]int32, n)
		w.pend = make([]uint64, (n+63)/64)
	}
	if s.deltaReady {
		return
	}
	if cap(s.revOff) < n+1 {
		s.revOff = make([]int32, n+1)
	}
	s.revOff = s.revOff[:n+1]
	for i := 0; i <= n; i++ {
		s.revOff[i] = 0
	}
	for _, b := range s.tbAdj {
		s.revOff[b+1]++
	}
	for i := 0; i < n; i++ {
		s.revOff[i+1] += s.revOff[i]
	}
	if cap(s.revAdj) < len(s.tbAdj) {
		s.revAdj = make([]int32, len(s.tbAdj))
	}
	s.revAdj = s.revAdj[:len(s.tbAdj)]
	copy(w.revCur, s.revOff[:n])
	for k, i := range s.order {
		for _, b := range s.tbAdj[s.tbOff[k]:s.tbOff[k+1]] {
			s.revAdj[w.revCur[b]] = i
			w.revCur[b]++
		}
	}
	// Descending order positions whose node has at least one dependent —
	// the only rows a flip-effects pass (PrepareFlipEffects) visits.
	// Leaves (most of the graph) are nobody's tiebreak candidate, so the
	// filtered list is a fraction of the order.
	if cap(s.depPos) < len(s.order) {
		s.depPos = make([]int32, 0, len(s.order))
	}
	s.depPos = s.depPos[:0]
	for k := len(s.order) - 1; k >= 0; k-- {
		if b := s.order[k]; s.revOff[b+1] > s.revOff[b] {
			s.depPos = append(s.depPos, int32(k))
		}
	}
	s.deltaReady = true
}

// ApplyFlips mutates t — which must currently equal the tree resolved
// for (s, secure, breaks) with no flips — into the projected tree for
// the given flip set, bit-identical to a full ResolveInto with the same
// arguments. Seeded with the reachable flipped nodes, it re-decides
// nodes in ascending order position (so every candidate is final when
// read, exactly as in a full resolution) and enqueues the dependents of
// each node whose Secure flag changes; nodes never reached provably
// decide as in the base tree.
//
// The pending set is a bitset over order positions with a
// forward-moving cursor: a node's dependents sit at strictly larger
// positions, so pops are monotonically increasing and the cursor never
// backs up — push and pop are O(1) amortized, versus O(log k) for the
// binary heap this replaces, and the pop sequence (ascending unique
// positions) is identical.
//
// It returns whether any parent differs from the base tree — when false
// the projected tree routes identically, so every traffic accumulation
// over it is bit-equal to the base one — and the number of nodes
// re-decided (the propagation work). RevertFlips restores t; a caller
// that instead wants to keep the projected tree (committing a realized
// state change rather than probing a hypothetical one) simply skips the
// Revert — the next ApplyFlips resets the undo log. PrepareDelta must
// have been called for s.
func (w *Workspace) ApplyFlips(t *Tree, s *Static, secure, breaks []bool, flipped, flipBreaks []bool, flipList []int32, tb Tiebreaker) (changed bool, touched int) {
	w.undo = w.undo[:0]
	w.touched = w.touched[:0]
	pend := w.pend
	pending := 0
	push := func(p int32) {
		word, bit := p>>6, uint64(1)<<uint(p&63)
		if pend[word]&bit == 0 {
			pend[word] |= bit
			pending++
		}
	}
	// The scan starts at the word of the lowest seeded position: no
	// pending bit can sit below it, so the empty words ahead of it need
	// no visit. A destination flip seeds its dependents anywhere.
	lo := int32(len(s.order))
	for _, f := range flipList {
		if f == s.Dest {
			lo = 0
			// The destination's entry is Parent -1, Secure = its own
			// deployment flag; a flip toggles Secure and can affect any
			// node listing the destination as a next hop.
			dSec := !secure[f]
			if t.Secure[f] != dSec {
				w.undo = append(w.undo, undoEntry{f, t.Parent[f], t.Secure[f]})
				t.Secure[f] = dSec
				for _, j := range s.revAdj[s.revOff[f]:s.revOff[f+1]] {
					push(s.pos[j])
				}
			}
			continue
		}
		if p := s.pos[f]; p >= 0 {
			push(p)
			lo = min(lo, p)
		}
	}
	for word := int(lo >> 6); pending > 0; {
		for pend[word] == 0 {
			word++
		}
		b := bits.TrailingZeros64(pend[word])
		pend[word] &^= 1 << uint(b)
		pending--
		k := word<<6 | b
		i := s.order[k]
		touched++
		w.touched = append(w.touched, i)
		// Singleton tiebreak sets (the overwhelming majority, paper
		// Fig. 10) admit no choice: decideNode provably returns the lone
		// candidate as parent with the flag simply mirroring it, so the
		// call — and its candidate scan — is short-circuited.
		var p int32
		var sec, ok bool
		if o := s.tbOff[k]; s.tbOff[k+1]-o == 1 {
			p = s.tbAdj[o]
			iSec := secure[i]
			if flipped != nil && flipped[i] {
				iSec = !iSec
			}
			sec, ok = iSec && t.Secure[p], true
		} else {
			p, sec, ok = decideNode(t, s, s.tbAdj[o:s.tbOff[k+1]], secure, breaks, flipped, flipBreaks, tb, i)
		}
		if !ok || (p == t.Parent[i] && sec == t.Secure[i]) {
			continue
		}
		w.undo = append(w.undo, undoEntry{i, t.Parent[i], t.Secure[i]})
		if p != t.Parent[i] {
			changed = true
		}
		secChanged := sec != t.Secure[i]
		t.Parent[i] = p
		t.Secure[i] = sec
		if secChanged {
			for _, j := range s.revAdj[s.revOff[i]:s.revOff[i+1]] {
				push(s.pos[j])
			}
		}
	}
	return changed, touched
}

// UndoSize returns the number of tree entries the preceding ApplyFlips
// changed (the size of its undo log). Zero means the projected tree is
// bit-identical to the tree passed in — not even a Secure flag moved.
func (w *Workspace) UndoSize() int { return len(w.undo) }

// LastTouched returns the nodes the preceding ApplyFlips re-decided —
// every node whose decision inputs could have changed, whether or not
// its entry actually did. The destination's own entry (updated directly
// when it flips, without a decision) is not included. The slice is
// workspace-owned and overwritten by the next ApplyFlips.
func (w *Workspace) LastTouched() []int32 { return w.touched }

// ParentMoves appends to dst the nodes whose Parent entry the preceding
// ApplyFlips actually changed in t — the exact structural difference
// between the projected tree and the tree passed in (Secure-only
// changes excluded) — and returns it. Each node appears at most once:
// the undo log holds one entry per changed node.
func (w *Workspace) ParentMoves(t *Tree, dst []int32) []int32 {
	for _, e := range w.undo {
		if e.parent != t.Parent[e.node] {
			dst = append(dst, e.node)
		}
	}
	return dst
}

// RevertFlips undoes the preceding ApplyFlips, restoring t to the base
// tree in O(nodes changed).
func (w *Workspace) RevertFlips(t *Tree) {
	for k := len(w.undo) - 1; k >= 0; k-- {
		e := w.undo[k]
		t.Parent[e.node] = e.parent
		t.Secure[e.node] = e.secure
	}
	w.undo = w.undo[:0]
}

// ChildIndex is a CSR index of one tree's children: Children(p) lists,
// in ascending order position, the order nodes whose chosen parent is p.
// It is valid for the tree it was built from only.
type ChildIndex struct {
	off, cur, list []int32
}

// Build indexes the children of tree t over s's order; n is the graph
// size.
func (ci *ChildIndex) Build(s *Static, t *Tree, n int) {
	if len(ci.off) < n+1 {
		ci.off = make([]int32, n+1)
		ci.cur = make([]int32, n)
		ci.list = make([]int32, n)
	}
	off := ci.off[:n+1]
	clear(off)
	for _, i := range s.order {
		off[t.Parent[i]+1]++
	}
	for p := 0; p < n; p++ {
		off[p+1] += off[p]
	}
	cur := ci.cur[:n]
	copy(cur, off[:n])
	for _, i := range s.order {
		p := t.Parent[i]
		ci.list[cur[p]] = i
		cur[p]++
	}
}

// Children returns the nodes whose parent is p in the indexed tree. The
// slice aliases the index.
func (ci *ChildIndex) Children(p int32) []int32 { return ci.list[ci.off[p]:ci.off[p+1]] }

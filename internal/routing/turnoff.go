package routing

// Single-node turn-off projections from one per-destination index.
//
// Under the incoming utility (Eq. 2) every secure ISP prices turning
// S*BGP off for every destination, so one destination's base tree is
// projected once per secure candidate c. A turn-off only removes
// security, and it removes it along the secure-path DAG: node i keeps a
// secure path in the projection iff one of the nodes it can take a
// secure path through still has one. For a SecP node (deployed, breaking
// ties) with two or more tiebreak candidates those are all its secure
// candidates; for every other node with a secure path it is its tree
// parent alone (a plain secure node is pinned to its winner, and a
// singleton row admits no choice). So c removes the secure path of
// exactly the nodes it dominates in that DAG rooted at the destination,
// c included — by induction in ascending position, since a node is
// dominated iff all its DAG predecessors are.
//
// The parent moves follow. A dominated node falls back to its plain
// winner: a SecP node finds no secure candidate left, c itself no longer
// applies SecP, and every other node already routes via its winner. An
// undominated SecP node keeps its argmin unless its chosen parent is
// dominated, in which case it moves to its tiebreak-least surviving
// secure candidate. Every other node keeps its parent. Only SecP nodes
// with two or more candidates can route away from their winner or switch
// between secure candidates, so the whole index is built from those
// rows: their immediate dominators (the meet of their secure candidates,
// Cooper–Harvey–Kennedy style — candidates sit at strictly smaller
// positions, so one ascending pass sees every operand final) and their
// registrations in the per-dominator move lists.

// TurnOffIndex answers every single-node turn-off projection of one
// destination's base tree: Moves(c) lists the parent moves of turning
// the deployed node c off, in ascending order position — the order
// ApplyFlips, then ParentMoves, would emit them for the flip set {c} —
// together with the new parents. Build it once per base tree; a query
// costs the length of its answer plus one dominance walk per candidate
// scanned for a switching SecP node.
//
// Scratch is node-indexed and reused across builds, with generation
// stamps standing in for clears, so a build costs the multi-candidate
// rows of the order, not the graph.
type TurnOffIndex struct {
	s  *Static
	t  *Tree
	tb Tiebreaker
	// gen stamps this build. idom[i] is node i's immediate dominator
	// where idomGen[i] == gen (the SecP multi-candidate nodes with a
	// secure path); every other secure node's is its tree parent.
	gen     uint32
	idom    []int32
	idomGen []uint32
	// Per-dominator move lists: head[v] starts v's list where
	// listGen[v] == gen, tail[v] ends it, and entry e is followed by
	// entry next[e] (-1 ends the list). When v dominates the moving node
	// x, node[e] is x and aux[e] its winner, where x falls back to; when
	// v dominates only x's parent, node[e] is ^x and aux[e] x's order
	// position, whose row holds the secure candidate x switches to.
	head, tail      []int32
	listGen         []uint32
	node, aux, next []int32
}

// Build indexes the turn-off projections of base tree t, which must be
// resolved for s and the breaks flags with no flips. The index reads s and
// t on every query, so it is valid until either changes.
func (x *TurnOffIndex) Build(s *Static, t *Tree, breaks []bool, tb Tiebreaker) {
	n := len(s.pos)
	if len(x.idom) < n {
		x.idom = make([]int32, n)
		x.idomGen = make([]uint32, n)
		x.head = make([]int32, n)
		x.tail = make([]int32, n)
		x.listGen = make([]uint32, n)
	}
	x.gen++
	if x.gen == 0 {
		clear(x.idomGen)
		clear(x.listGen)
		x.gen = 1
	}
	x.s, x.t, x.tb = s, t, tb
	x.node, x.aux, x.next = x.node[:0], x.aux[:0], x.next[:0]
	d := s.Dest
	for k, i := range s.order {
		o, e := s.tbOff[k], s.tbOff[k+1]
		// A secure path implies secure[i]; with breaks[i] the node
		// applies SecP.
		if e-o < 2 || !t.Secure[i] || !breaks[i] {
			continue
		}
		a := int32(-1)
		for _, b := range s.tbAdj[o:e] {
			if !t.Secure[b] {
				continue
			}
			if a < 0 {
				a = b
			} else {
				a = x.meet(a, b)
			}
		}
		x.idom[i] = a
		x.idomGen[i] = x.gen
		p := t.Parent[i]
		if w := plainWinner(s, s.tbAdj[o:e], tb, i); p != w {
			// Every dominator of i, i included, drops i to its winner.
			for v := i; v != d; v = x.up(v) {
				x.register(v, i, w)
			}
		}
		// The dominators of i's parent that do not dominate i — the
		// chain from p up to, but excluding, i's immediate dominator —
		// leave i secure through another candidate.
		for v := p; v != a; v = x.up(v) {
			x.register(v, ^i, int32(k))
		}
	}
}

// up returns secure node v's immediate dominator.
func (x *TurnOffIndex) up(v int32) int32 {
	if x.idomGen[v] == x.gen {
		return x.idom[v]
	}
	return x.t.Parent[v]
}

// meet returns the nearest common dominator of secure nodes a and b.
// Dominators sit at strictly smaller positions and the destination at
// position -1, so walking the later node up always converges.
func (x *TurnOffIndex) meet(a, b int32) int32 {
	pos := x.s.pos
	for a != b {
		for pos[a] > pos[b] {
			a = x.up(a)
		}
		for pos[b] > pos[a] {
			b = x.up(b)
		}
	}
	return a
}

// dominates reports whether c dominates secure node b.
func (x *TurnOffIndex) dominates(c, b int32) bool {
	pos := x.s.pos
	for pos[b] > pos[c] {
		b = x.up(b)
	}
	return b == c
}

// register appends entry (v, aux) to dominator d's move list.
func (x *TurnOffIndex) register(d, v, aux int32) {
	e := int32(len(x.node))
	x.node = append(x.node, v)
	x.aux = append(x.aux, aux)
	x.next = append(x.next, -1)
	if x.listGen[d] != x.gen {
		x.listGen[d] = x.gen
		x.head[d] = e
	} else {
		x.next[x.tail[d]] = e
	}
	x.tail[d] = e
}

// Moves appends to moved the nodes whose parent changes when the
// deployed, non-destination node c turns off, in ascending order
// position, and to parents their projected parents, returning both. An
// empty answer means the projection routes exactly as the base tree.
func (x *TurnOffIndex) Moves(c int32, moved, parents []int32) ([]int32, []int32) {
	if x.listGen[c] != x.gen {
		return moved, parents
	}
	s := x.s
	for e := x.head[c]; e >= 0; e = x.next[e] {
		v := x.node[e]
		if v >= 0 {
			moved = append(moved, v)
			parents = append(parents, x.aux[e])
			continue
		}
		v = ^v
		// decideNode's SecP scan over the projected Secure flags: a
		// candidate stays secure iff it was and c does not dominate it.
		best := int32(-1)
		k := x.aux[e]
		for _, b := range s.tbAdj[s.tbOff[k]:s.tbOff[k+1]] {
			if x.t.Secure[b] && (best == -1 || x.tb.Less(v, b, best)) && !x.dominates(c, b) {
				best = b
			}
		}
		moved = append(moved, v)
		parents = append(parents, best)
	}
	return moved, parents
}

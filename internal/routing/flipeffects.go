package routing

// Batched projection prediction. Candidate projections flip a single
// node's deployment flag and ask whether any parent in the routing tree
// moves — when none does, the projected tree routes identically and the
// utility delta is exactly zero (the common case: two thirds of
// surviving projections in a typical round). ApplyFlips discovers that
// by actually propagating the change and undoing it; the pass below
// answers it for every turn-on candidate of a destination at once, with
// one walk over the destination's tree per round. (Turn-offs need no
// prediction: TurnOffIndex answers them exactly.)
//
// The observable a single flip propagates through the tree is one
// node's Secure flag. A turn-on ripples strictly downstream (dependents
// sit at larger order positions) and only as gains: at a dependent j
// the ripple either dies (j's entry is unaffected), moves j's parent
// (the projection differs structurally — the expensive propagation is
// genuinely needed), or raises j's own Secure flag with the parent
// unchanged. That last case is the recursion: j's flag now plays b's
// role one level down. moveIf[pos(b)], for a node b without a secure
// path, therefore answers "if b gained a secure path, would any parent
// anywhere downstream move?", computed in one descending-order pass
// with the dependents index (the bitset is order-position indexed,
// like ApplyFlips' pending set).
//
// The per-candidate query (FlipChangesTree) then decides the
// candidate's own entry exactly as decideNode would and chains into
// moveIf when only its Secure flag changes. Predicted "no move" is
// exact, not conservative: the monotone-direction argument above makes
// every no-move/no-ripple case airtight, so a skipped projection is
// guaranteed to have a zero delta. (The reverse direction may
// over-approximate inside the pass — a joint ripple can cancel at a
// node where single-flag analysis predicts a move — which only costs a
// wasted ApplyFlips that then reports no change.)

// PrepareFlipEffects computes the move predictor for destination
// static s against base tree t, which must be resolved for (s, secure,
// breaks) with no flips. PrepareDelta must have been called for s. The
// predictor is valid until s, t or the deployment state changes; it
// lives in workspace scratch, so it is invalidated by the next
// PrepareFlipEffects on this workspace.
func (w *Workspace) PrepareFlipEffects(s *Static, t *Tree, secure, breaks []bool, tb Tiebreaker) {
	nw := (len(s.order) + 63) / 64
	if cap(w.effBits) < nw {
		w.effBits = make([]uint64, nw)
	}
	w.effBits = w.effBits[:nw]
	for i := range w.effBits {
		w.effBits[i] = 0
	}
	order, win, pos := s.order, s.win, s.pos
	// Only nodes with dependents can set a bit; depPos (descending, from
	// PrepareDelta) skips the leaf majority outright.
	for _, k := range s.depPos {
		b := order[k]
		if t.Secure[b] {
			continue // holds a secure path already: no gain to ripple
		}
		moves := false
		for _, j := range s.revAdj[s.revOff[b]:s.revOff[b+1]] {
			if !secure[j] {
				continue // j's parent is win[j] and its flag false, regardless of b
			}
			if !breaks[j] {
				// Plain secure node: parent pinned to win[j], flag mirrors
				// its winner's. b matters only as the winner, and then j's
				// flag rises with b's — recurse.
				if win[j] == b && w.effBits[pos[j]>>6]&(1<<uint(pos[j]&63)) != 0 {
					moves = true
					break
				}
				continue
			}
			// SecP node. Its tree flag also tells whether any tiebreak
			// candidate currently offers a secure path: the decision
			// picks one iff one exists.
			if t.Secure[j] {
				// j already routes securely via t.Parent[j]; the newcomer
				// wins only if the tiebreaker prefers it.
				if tb.Less(j, b, t.Parent[j]) {
					moves = true
					break
				}
				continue
			}
			// j gains its first secure candidate: decideNode would pick b.
			if win[j] != b {
				moves = true
				break
			}
			// Parent stays b (= win[j]); j's flag rises false→true — recurse.
			if w.effBits[pos[j]>>6]&(1<<uint(pos[j]&63)) != 0 {
				moves = true
				break
			}
		}
		if moves {
			w.effBits[k>>6] |= 1 << uint(k&63)
		}
	}
}

// FlipChangesTree predicts whether turning on the single node c — an
// undeployed, non-destination node in s's order whose projected
// tie-break policy is to break ties — produces a projected tree whose
// parents differ anywhere from base tree t. false guarantees the
// projection routes identically to the base (its utility delta is
// exactly zero and ApplyFlips can be skipped); true means change
// propagation is needed. PrepareFlipEffects must have run for (s, t, tb)
// and the base state on this workspace.
func (w *Workspace) FlipChangesTree(s *Static, t *Tree, tb Tiebreaker, c int32) bool {
	// c becomes SecP and picks its best secure candidate, if any —
	// mirroring decideNode's selection.
	cands := s.Tiebreak(c)
	best := int32(-1)
	if len(cands) == 1 {
		if b := cands[0]; t.Secure[b] {
			best = b
		}
	} else {
		for _, b := range cands {
			if t.Secure[b] && (best == -1 || tb.Less(c, b, best)) {
				best = b
			}
		}
	}
	if best < 0 {
		return false // no secure candidate: entry unchanged entirely
	}
	if best != s.win[c] {
		return true // c's own parent moves
	}
	// Parent stays win[c]; c's flag rises false→true — ripple.
	p := s.pos[c]
	return w.effBits[p>>6]&(1<<uint(p&63)) != 0
}

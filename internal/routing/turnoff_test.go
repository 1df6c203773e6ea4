package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
)

// turnOffChecker differentially tests TurnOffIndex against ApplyFlips
// with the flip set {c}, reusing its scratch across destinations.
type turnOffChecker struct {
	g          *asgraph.Graph
	w          *Workspace
	tb         Tiebreaker
	sec, brk   []bool
	flipped    []bool
	base, ref  Tree
	full       Tree
	idx        TurnOffIndex
	refMoves   []int32
	gotMoves   []int32
	gotParents []int32
	// switches counts the moves that go to a secure candidate other
	// than the winner: the SecP nodes that keep a secure path.
	switches int
}

func newTurnOffChecker(g *asgraph.Graph, sec, brk []bool, tb Tiebreaker) *turnOffChecker {
	return &turnOffChecker{g: g, w: NewWorkspace(g), tb: tb, sec: sec, brk: brk, flipped: make([]bool, g.N())}
}

// dest checks every deployed candidate of destination d (winners
// precomputed or not) and returns a description of the first mismatch,
// or "" when the index agrees with ApplyFlips everywhere: the moves
// equal ParentMoves in the same order, and each new parent equals the
// projected tree's, which equals a full resolution's.
func (ck *turnOffChecker) dest(d int32, winners bool) string {
	n := ck.g.N()
	w := ck.w
	var s *Static
	if winners {
		s = w.PrepareDest(d, ck.tb)
	} else {
		s = w.ComputeStatic(d)
	}
	ck.base.Clear(n)
	w.ResolveInto(&ck.base, s, ck.sec, ck.brk, nil, nil, ck.tb)
	w.PrepareDelta(s)
	ck.idx.Build(s, &ck.base, ck.brk, ck.tb)
	ck.ref.CopyFrom(&ck.base)
	for _, c := range s.Order() {
		if !ck.sec[c] {
			continue
		}
		ck.flipped[c] = true
		w.ApplyFlips(&ck.ref, s, ck.sec, ck.brk, ck.flipped, nil, []int32{c}, ck.tb)
		ck.full.Clear(n)
		w.ResolveInto(&ck.full, s, ck.sec, ck.brk, ck.flipped, nil, ck.tb)
		ck.flipped[c] = false
		ck.refMoves = w.ParentMoves(&ck.ref, ck.refMoves[:0])

		ck.gotMoves, ck.gotParents = ck.idx.Moves(c, ck.gotMoves[:0], ck.gotParents[:0])
		if !slices.Equal(ck.gotMoves, ck.refMoves) {
			return fmt.Sprintf("turning off %d: moves %v, ApplyFlips moves %v", c, ck.gotMoves, ck.refMoves)
		}
		for k, m := range ck.gotMoves {
			if p := ck.gotParents[k]; p != ck.ref.Parent[m] || p != ck.full.Parent[m] {
				return fmt.Sprintf("turning off %d: node %d moves to %d, ApplyFlips to %d, a full resolution to %d",
					c, m, p, ck.ref.Parent[m], ck.full.Parent[m])
			}
			if p := ck.gotParents[k]; p != plainWinner(s, s.Tiebreak(m), ck.tb, m) {
				ck.switches++
			}
		}
		w.RevertFlips(&ck.ref)
	}
	return ""
}

// TestQuickTurnOffIndex: the index reproduces ApplyFlips on single-node
// turn-offs over random graphs and states, with and without precomputed
// winners.
func TestQuickTurnOffIndex(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 4+rng.Intn(24), 0.15, 0.1, 0.25)
		sec, brk := asgraphtest.RandomState(rng, g.N(), 0.3+0.6*rng.Float64(), 0.7)
		ck := newTurnOffChecker(g, sec, brk, HashTiebreaker{Seed: uint64(seed)})
		for d := int32(0); d < int32(g.N()); d++ {
			if msg := ck.dest(d, d%2 == 0); msg != "" {
				t.Logf("seed %d dest %d: %s", seed, d, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestTurnOffIndexShapes runs the differential on the static shapes
// that stress the dominator chains: a provider ladder with paths longer
// than 254 hops (two rails keep every tiebreak set at width 2, so SecP
// choices recur the whole way up) and a destination reachable over peer
// edges only.
func TestTurnOffIndexShapes(t *testing.T) {
	const rungs = 280
	ladder := asgraph.NewBuilder()
	for i := int32(1); i < rungs; i++ {
		ladder.AddCustomer(2*(i+1), 2*i).AddCustomer(2*(i+1)+1, 2*i)
		ladder.AddCustomer(2*(i+1), 2*i+1).AddCustomer(2*(i+1)+1, 2*i+1)
	}
	peer := asgraph.NewBuilder()
	peer.AddPeer(1, 2).AddPeer(1, 3).AddPeer(1, 4)
	peer.AddCustomer(2, 5).AddCustomer(3, 5)
	peer.AddCustomer(4, 6).AddCustomer(6, 7)
	for _, tc := range []struct {
		name  string
		g     *asgraph.Graph
		dests []int32 // ASNs
	}{
		{"ladder", ladder.MustBuild(), []int32{2, 3, rungs, 2 * rungs}},
		{"peer-only", peer.MustBuild(), []int32{1, 2, 5, 7}},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// Mostly deployed, so long secure chains form and break.
			sec, brk := asgraphtest.RandomState(rng, tc.g.N(), 0.9, 0.8)
			ck := newTurnOffChecker(tc.g, sec, brk, HashTiebreaker{Seed: uint64(seed)})
			for _, asn := range tc.dests {
				d := idx(t, tc.g, asn)
				for _, winners := range []bool{true, false} {
					if msg := ck.dest(d, winners); msg != "" {
						t.Fatalf("%s seed %d dest AS%d winners=%v: %s", tc.name, seed, asn, winners, msg)
					}
				}
			}
		}
	}
}

// TestTurnOffIndexFrontier: a SecP node x whose four secure candidates
// hang off different dominators. b1 and b2 route via a1 only, b3 via a3
// only, and b4 via either, so x's immediate dominator is the
// destination while a1 dominates two of its candidates, a3 one, and b4
// only itself. Turning off a dominator of x's parent that does not
// dominate x must move x to its tiebreak-least surviving candidate —
// not to its winner, and not to a candidate the same turn-off removes.
// Every tiebreak seed and every deployment of the a/b layer is checked,
// with everything else deployed and breaking ties; y, a provider of x
// only, inherits each of x's moves.
func TestTurnOffIndexFrontier(t *testing.T) {
	const d, a1, a3, b1, b2, b3, b4, x, y = 1, 2, 3, 4, 5, 6, 7, 8, 9
	b := asgraph.NewBuilder()
	b.AddCustomer(a1, d).AddCustomer(a3, d)
	b.AddCustomer(b1, a1).AddCustomer(b2, a1).AddCustomer(b3, a3)
	b.AddCustomer(b4, a1).AddCustomer(b4, a3)
	b.AddCustomer(x, b1).AddCustomer(x, b2).AddCustomer(x, b3).AddCustomer(x, b4)
	b.AddCustomer(y, x)
	g := b.MustBuild()
	n := g.N()
	layer := []int32{idx(t, g, a1), idx(t, g, a3), idx(t, g, b1), idx(t, g, b2), idx(t, g, b3), idx(t, g, b4)}
	switches := 0
	for seed := uint64(0); seed < 16; seed++ {
		for mask := 0; mask < 1<<len(layer); mask++ {
			sec, brk := make([]bool, n), make([]bool, n)
			for i := range sec {
				sec[i], brk[i] = true, true
			}
			for k, v := range layer {
				sec[v] = mask&(1<<k) == 0
				brk[v] = sec[v]
			}
			ck := newTurnOffChecker(g, sec, brk, HashTiebreaker{Seed: seed})
			for _, winners := range []bool{true, false} {
				if msg := ck.dest(idx(t, g, d), winners); msg != "" {
					t.Fatalf("seed %d mask %06b winners=%v: %s", seed, mask, winners, msg)
				}
			}
			switches += ck.switches
		}
	}
	if switches == 0 {
		t.Error("no turn-off switched x to another secure candidate: the frontier rule went unexercised")
	}
}

// FuzzTurnOffIndex: the turn-off index against ApplyFlips on the fuzz
// graph, with the deployment state, tie-break flags, destination and
// tiebreak seed drawn from the input.
func FuzzTurnOffIndex(f *testing.F) {
	g, _, _ := fuzzGraph()
	n := g.N()
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(0), uint64(71))
	f.Add([]byte{0xaa, 0x55, 0xf0, 0x0f, 0xcc, 0x33}, uint8(5), uint64(3))
	f.Fuzz(func(t *testing.T, bitsIn []byte, dest uint8, seed uint64) {
		sec, brk := make([]bool, n), make([]bool, n)
		for i := 0; i < n && i/4 < len(bitsIn); i++ {
			b := bitsIn[i/4] >> uint(2*(i%4))
			sec[i] = b&1 != 0
			brk[i] = b&2 != 0
		}
		ck := newTurnOffChecker(g, sec, brk, HashTiebreaker{Seed: seed})
		d := int32(int(dest) % n)
		for _, winners := range []bool{true, false} {
			if msg := ck.dest(d, winners); msg != "" {
				t.Fatalf("dest %d winners=%v: %s", d, winners, msg)
			}
		}
	})
}

package routing

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
)

// turnOffChecker differentially tests ApplyTurnOff against ApplyFlips
// with the flip set {c}, reusing its scratch across destinations.
type turnOffChecker struct {
	g          *asgraph.Graph
	w          *Workspace
	tb         Tiebreaker
	sec, brk   []bool
	flipped    []bool
	base, ref  Tree
	full, got  Tree
	kids       ChildIndex
	refMoves   []int32
	gotMoves   []int32
	refTouched []int32
}

func newTurnOffChecker(g *asgraph.Graph, sec, brk []bool, tb Tiebreaker) *turnOffChecker {
	return &turnOffChecker{g: g, w: NewWorkspace(g), tb: tb, sec: sec, brk: brk, flipped: make([]bool, g.N())}
}

// dest checks every deployed candidate of destination d (winners
// precomputed or not) and returns a description of the first mismatch,
// or "" when the kernel agrees with ApplyFlips everywhere:
//   - the projected tree of a full resolution, and ApplyFlips' UndoSize;
//   - no more nodes re-decided than ApplyFlips;
//   - emitted moves equal to ParentMoves, in the same order;
//   - RevertFlips restoring the base tree;
//   - with record set, LastTouched a superset of ApplyFlips' set.
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
	ck.kids.Build(s, &ck.base, n)
	ck.ref.CopyFrom(&ck.base)
	ck.got.CopyFrom(&ck.base)
	for _, c := range s.Order() {
		if !ck.sec[c] {
			continue
		}
		ck.flipped[c] = true
		w.ApplyFlips(&ck.ref, s, ck.sec, ck.brk, ck.flipped, nil, []int32{c}, ck.tb)
		ck.flipped[c] = false
		ck.refMoves = w.ParentMoves(&ck.ref, ck.refMoves[:0])
		ck.refTouched = append(ck.refTouched[:0], w.LastTouched()...)
		refUndo := w.UndoSize()
		w.RevertFlips(&ck.ref)
		ck.flipped[c] = true
		ck.full.Clear(n)
		w.ResolveInto(&ck.full, s, ck.sec, ck.brk, ck.flipped, nil, ck.tb)
		ck.flipped[c] = false

		for _, record := range []bool{false, true} {
			var touched int
			ck.gotMoves, touched = w.ApplyTurnOff(&ck.got, s, ck.sec, ck.brk, c, &ck.kids, ck.tb, record, ck.gotMoves[:0])
			switch {
			case !treesEqual(&ck.got, &ck.full, n):
				return "projected tree differs from a full resolution"
			case w.UndoSize() != refUndo:
				return "undo size differs from ApplyFlips"
			case !slices.Equal(ck.gotMoves, ck.refMoves):
				return "emitted moves differ from ParentMoves"
			case touched > len(ck.refTouched):
				return "re-decided more nodes than ApplyFlips"
			case record && !subset(ck.refTouched, w.LastTouched()):
				return "recorded LastTouched misses a node ApplyFlips re-decided"
			}
			w.RevertFlips(&ck.got)
			if !treesEqual(&ck.got, &ck.base, n) {
				return "RevertFlips did not restore the base tree"
			}
		}
	}
	return ""
}

func subset(sub, super []int32) bool {
	in := make(map[int32]bool, len(super))
	for _, x := range super {
		in[x] = true
	}
	for _, x := range sub {
		if !in[x] {
			return false
		}
	}
	return true
}

// TestQuickApplyTurnOff: the loss-cascade kernel reproduces ApplyFlips
// on single-node turn-offs over random graphs and states, with and
// without precomputed winners.
func TestQuickApplyTurnOff(t *testing.T) {
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

// TestApplyTurnOffShapes runs the differential on the static shapes
// that stress propagation: a provider ladder with paths longer than 254
// hops (two rails keep every tiebreak set at width 2, so SecP choices
// recur the whole way up) and a destination reachable over peer edges
// only.
func TestApplyTurnOffShapes(t *testing.T) {
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
			// Mostly deployed, so long secure chains form and collapse.
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

// FuzzApplyTurnOff: the loss-cascade kernel against ApplyFlips on the
// fuzz graph, with the deployment state, tie-break flags, destination
// and tiebreak seed drawn from the input.
func FuzzApplyTurnOff(f *testing.F) {
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

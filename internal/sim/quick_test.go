package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
	"sbgp/internal/routing"
)

// TestQuickOutgoingAlwaysTerminates: Theorem 6.2 implies every
// outgoing-utility simulation reaches a stable state — property-tested
// over random graphs, adopter sets and thresholds.
func TestQuickOutgoingAlwaysTerminates(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 6+rng.Intn(20), 0.14, 0.1, 0.25)
		var adopters []int32
		for i := int32(0); i < int32(g.N()); i++ {
			if rng.Float64() < 0.25 {
				adopters = append(adopters, i)
			}
		}
		cfg := Config{
			Model:          Outgoing,
			Theta:          []float64{0, 0.05, 0.2}[rng.Intn(3)],
			EarlyAdopters:  adopters,
			StubsBreakTies: rng.Intn(2) == 0,
			Tiebreaker:     routing.HashTiebreaker{Seed: uint64(seed)},
			MaxRounds:      100,
		}
		res := MustNew(g, cfg).Run()
		if !res.Stable || res.Oscillated {
			t.Logf("seed %d: stable=%v oscillated=%v after %d rounds",
				seed, res.Stable, res.Oscillated, res.NumRounds())
			return false
		}
		// Deployment is monotone under outgoing utility: no Disabled.
		for _, rd := range res.Rounds {
			if len(rd.Disabled) > 0 {
				t.Logf("seed %d: outgoing model disabled %v", seed, rd.Disabled)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickSecureSetMonotoneOutgoing: under outgoing utility the secure
// population only grows round over round.
func TestQuickSecureSetMonotoneOutgoing(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 6+rng.Intn(16), 0.15, 0.1, 0.25)
		isps := g.Nodes(asgraph.ISP)
		if len(isps) == 0 {
			return true
		}
		cfg := Config{
			Model:          Outgoing,
			Theta:          0.02,
			EarlyAdopters:  isps[:1+rng.Intn(len(isps))],
			StubsBreakTies: true,
			Tiebreaker:     routing.HashTiebreaker{Seed: uint64(seed)},
		}
		res := MustNew(g, cfg).Run()
		prev := res.Initial.SecureASes
		for _, rd := range res.Rounds {
			if rd.After.SecureASes < prev {
				return false
			}
			prev = rd.After.SecureASes
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickEarlyAdoptersStaySecure: seeded adopters never lose their
// secure status under outgoing utility (CPs and stubs never flip; ISPs
// have no turn-off incentive).
func TestQuickEarlyAdoptersStaySecure(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 6+rng.Intn(14), 0.15, 0.1, 0.25)
		var adopters []int32
		for i := int32(0); i < int32(g.N()); i++ {
			if rng.Float64() < 0.3 {
				adopters = append(adopters, i)
			}
		}
		cfg := Config{
			Model:          Outgoing,
			Theta:          0.05,
			EarlyAdopters:  adopters,
			StubsBreakTies: true,
			Tiebreaker:     routing.HashTiebreaker{Seed: uint64(seed)},
		}
		res := MustNew(g, cfg).Run()
		for _, a := range adopters {
			if !res.FinalSecure[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeltaAtMatchesAccumulate: the incremental group-delta
// (deltaAt) must agree with the reference full-subtree accumulation
// (accumulateAt on the projected tree minus the base contribution) for
// every destination, candidate flip set and model — up to summation
// rounding, since deltaAt deliberately re-associates the float sums.
func TestQuickDeltaAtMatchesAccumulate(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 5+rng.Intn(16), 0.15, 0.1, 0.25)
		n := g.N()
		sec, brk := asgraphtest.RandomState(rng, n, 0.5, 0.7)
		tb := routing.HashTiebreaker{Seed: uint64(seed)}
		wk := newWorker(g, n)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = g.Weight(int32(i))
		}
		model := UtilityModel(rng.Intn(2))
		flipped := make([]bool, n)
		var base routing.Tree
		for d := int32(0); d < int32(n); d++ {
			stc := wk.ws.PrepareDest(d, tb)
			base.Clear(n)
			wk.ws.ResolveInto(&base, stc, sec, brk, nil, nil, tb)
			wk.ws.PrepareDelta(stc)
			accumulate(stc, &base, weights, wk.accBase, wk.incBase)
			wk.kids.Build(stc, &base, n)
			wk.projTree.CopyFrom(&base)
			for _, c := range stc.Order() {
				// Flip c plus occasionally a couple of extra nodes, the
				// multi-flip shape ProjectStubUpgrades produces.
				flipList := []int32{c}
				for len(flipList) < 3 && rng.Float64() < 0.2 {
					x := int32(rng.Intn(n))
					if x != d && x != c && !flipped[x] && stc.Pos(x) >= 0 {
						flipList = append(flipList, x)
					}
				}
				for _, f := range flipList {
					flipped[f] = true
				}
				changed, _ := wk.ws.ApplyFlips(&wk.projTree, stc, sec, brk, flipped, nil, flipList, tb)
				if changed {
					wk.movedBuf = wk.ws.ParentMoves(&wk.projTree, wk.movedBuf[:0])
					got := wk.deltaAt(model, stc, &base, &wk.projTree, weights, c, wk.movedBuf)
					projC := wk.accumulateAt(model, stc, &wk.projTree, weights, c, wk.movedBuf)
					want := projC - wk.contribution(model, stc, wk.accBase, wk.incBase, weights, c)
					if math.Abs(got-want) > 1e-9 {
						t.Logf("seed %d dest %d cand %d flips %v model %v: deltaAt %v != reference %v",
							seed, d, c, flipList, model, got, want)
						return false
					}
				}
				wk.ws.RevertFlips(&wk.projTree)
				for _, f := range flipList {
					flipped[f] = false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

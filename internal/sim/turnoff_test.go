package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
	"sbgp/internal/routing"
	"sbgp/internal/topogen"
)

// TestQuickTurnOffPaths: the engine's turn-off projections — answered
// by the turn-off index through projectDelta — give deltas bit-equal to
// the generic path (ApplyFlips, ParentMoves, deltaAt), clear the flip
// marks and leave the projection scratch at the base tree.
func TestQuickTurnOffPaths(t *testing.T) {
	var moving int
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 5+rng.Intn(20), 0.15, 0.1, 0.25)
		n := g.N()
		sec, brk := asgraphtest.RandomState(rng, n, 0.5+0.45*rng.Float64(), 0.8)
		for i := range brk {
			brk[i] = brk[i] && sec[i] // deployState: only deployed nodes break ties
		}
		tb := routing.HashTiebreaker{Seed: uint64(seed)}
		wk := newWorker(g, n)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = g.Weight(int32(i))
		}
		rc := &roundCtx{
			st:      &deployState{secure: sec, breaks: brk},
			cfg:     &Config{Model: UtilityModel(rng.Intn(2)), Tiebreaker: tb},
			weights: weights,
		}
		var base, ref routing.Tree
		for d := int32(0); d < int32(n); d++ {
			stc := wk.ws.PrepareDest(d, tb)
			base.Clear(n)
			wk.ws.ResolveInto(&base, stc, sec, brk, nil, nil, tb)
			wk.ws.PrepareDelta(stc)
			ref.CopyFrom(&base)
			wk.offReady, wk.projReady = false, false
			for _, c := range stc.Order() {
				if !sec[c] || !base.Secure[c] {
					continue // only surviving turn-offs reach projectDelta
				}
				wk.flipMark[c] = true
				changed, _ := wk.ws.ApplyFlips(&ref, stc, sec, brk, wk.flipMark, nil, []int32{c}, tb)
				wk.flipMark[c] = false
				want := 0.0
				if changed {
					moving++
					wk.kids.Build(stc, &base, n)
					wk.movedBuf = wk.ws.ParentMoves(&ref, wk.movedBuf[:0])
					want = wk.deltaAt(rc.cfg.Model, stc, &base, &ref, weights, c, wk.movedBuf)
				}
				wk.ws.RevertFlips(&ref)

				flips := wk.flipSetFor(rc.st, rc.cfg, c)
				got, gotChanged, _ := wk.projectDelta(rc, stc, &base, c, flips, true)
				if gotChanged != changed || math.Float64bits(got) != math.Float64bits(want) {
					t.Logf("seed %d dest %d cand %d: delta %v (moved %v), generic %v (moved %v)",
						seed, d, c, got, gotChanged, want, changed)
					return false
				}
				if wk.flipMark[c] {
					t.Logf("seed %d dest %d cand %d: flip mark left set", seed, d, c)
					return false
				}
				if wk.projReady {
					for i := 0; i < n; i++ {
						if wk.projTree.Parent[i] != base.Parent[i] || wk.projTree.Secure[i] != base.Secure[i] {
							t.Logf("seed %d dest %d cand %d: projection scratch not restored at node %d", seed, d, c, i)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	if moving == 0 {
		t.Error("no turn-off moved a parent: the delta comparison went unexercised")
	}
}

// TestIncomingGameInvariant: an incoming game — where turn-off
// projections do most of the work and dynamic records keep no witness —
// is bit-identical across dynamic-cache budgets and static tiers at
// every worker count, with and without tie-breaking stubs, and its
// decisions do not depend on the worker count.
func TestIncomingGameInvariant(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 7))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)
	tiny := 4*(dynTreeBytes(g.N())+dynRecordMinimum) + 8
	root := t.TempDir()
	defer routing.CloseSharedDiskStores()

	for _, stubsBreak := range []bool{true, false} {
		var first *Result
		for _, workers := range []int{1, 3, 5} {
			base := Config{
				Model:             Incoming,
				Theta:             0.05,
				EarlyAdopters:     adopters,
				StubsBreakTies:    stubsBreak,
				Workers:           workers,
				DynamicCacheBytes: -1,
				RecordUtilities:   true,
			}
			ref := MustNew(g, base).Run()
			if first == nil {
				first = ref
				if len(ref.Rounds) < 2 {
					t.Fatalf("stubsBreak=%v: game ran %d rounds, want a cascade", stubsBreak, len(ref.Rounds))
				}
			} else {
				if !reflect.DeepEqual(decisionsOf(first), decisionsOf(ref)) {
					t.Errorf("stubsBreak=%v/workers=%d: decisions differ from one worker's", stubsBreak, workers)
				}
			}
			for _, budget := range []int64{-1, tiny, 0} {
				for _, disk := range []bool{false, true} {
					if budget == -1 && !disk {
						continue // the reference itself
					}
					cfg := base
					cfg.DynamicCacheBytes = budget
					if disk {
						cfg.StaticStoreDir = root
					}
					label := fmt.Sprintf("stubsBreak=%v/workers=%d/dyn=%d/disk=%v", stubsBreak, workers, budget, disk)
					requireBitIdentical(t, label, ref, MustNew(g, cfg).Run())
				}
			}
		}
	}
}

package sim

import (
	"math"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/topogen"
)

// TestPackedStaticsResultInvariant: packed cache storage is a pure
// representation change — a decoded blob reproduces PrepareDest's
// output bit for bit (routing/packed.go), admissions and lookups keep
// the same stripe order — so Results are bit-identical to a run with
// no layer that holds a blob, at any worker count and any budget,
// including one small enough to force the repack.
func TestPackedStaticsResultInvariant(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 7))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)

	// ~10 KB per unpacked snapshot at N=300: the tiny budget overflows
	// immediately, forcing the repack.
	const tinyBudget = 40_000

	for _, workers := range []int{1, 3, 5} {
		base := Config{
			Model:           Outgoing,
			Theta:           0.05,
			EarlyAdopters:   adopters,
			StubsBreakTies:  true,
			Workers:         workers,
			RecordUtilities: true,
			RecordStats:     true,
		}
		ref := MustNew(g, layerFreeConfig(base)).Run()

		for _, budget := range []int64{0, tinyBudget} {
			cfg := base
			cfg.StaticCacheBytes = budget
			got := MustNew(g, cfg).Run()
			label := map[int64]string{0: "default", tinyBudget: "tiny"}[budget]
			label = "workers=" + itoa(workers) + "/budget=" + label
			requireBitIdentical(t, label, ref, got)
			// The tiny budget must actually exercise the packed phase:
			// caches overflow, repack, and report blob residency in the
			// round stats.
			if budget == tinyBudget {
				var packedEntries int64
				for _, rd := range got.Rounds {
					if rd.Stats != nil {
						packedEntries += rd.Stats.StaticPackedEntries
					}
				}
				if packedEntries == 0 {
					t.Errorf("%s: tiny budget never repacked", label)
				}
			}
		}
	}
}

// TestShardEngineStaticsHandoff: the migration warm-start path —
// ExportStatics on the source engine, ImportStatics on a cold
// destination engine — leaves the destination fully warm (zero static
// misses on its first round) and bit-identical to the source's own
// partials.
func TestShardEngineStaticsHandoff(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 7))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)
	cfg := Config{Theta: 0.05, EarlyAdopters: adopters}
	st := RoundState{Secure: make([]bool, g.N()), Breaks: make([]bool, g.N())}
	for _, a := range adopters {
		st.Secure[a] = true
	}
	cands := g.ISPs()
	shard0Dests := (g.N() + 1) / 2 // d ≡ 0 (mod 2)

	src, err := NewShardEngine(g, cfg, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := src.ComputeRound(st, cands)
	wantBase := append([]float64(nil), want[0].UBase...)
	wantDelta := append([]float64(nil), want[0].UDelta...)

	if err := src.RemoveShards([]int{0}); err != nil {
		t.Fatal(err)
	}
	blobs := src.ExportStatics([]int{0})
	if len(blobs) != shard0Dests {
		t.Fatalf("exported %d blobs, want %d (every shard-0 destination cached)", len(blobs), shard0Dests)
	}

	dst, err := NewShardEngine(g, cfg, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	dst.ImportStatics(blobs)
	got := dst.ComputeRound(st, cands)
	if len(got) != 1 || got[0].Shard != 0 {
		t.Fatalf("destination engine returned %d partials", len(got))
	}
	if got[0].Stats.StaticMisses != 0 {
		t.Errorf("imported statics left %d misses; the shard landed cold", got[0].Stats.StaticMisses)
	}
	if got[0].Stats.StaticHits != int64(shard0Dests) {
		t.Errorf("%d static hits, want %d", got[0].Stats.StaticHits, shard0Dests)
	}
	for i := range wantBase {
		if math.Float64bits(wantBase[i]) != math.Float64bits(got[0].UBase[i]) ||
			math.Float64bits(wantDelta[i]) != math.Float64bits(got[0].UDelta[i]) {
			t.Fatalf("partials differ at node %d after warm handoff", i)
		}
	}
}

package sim

import (
	"fmt"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/topogen"
)

// TestStreamingResolveResultInvariant: the fused streaming resolver and
// the pristine-contribution replay tier are pure performance layers — a
// streamed resolution replays decideNode's decisions over the same
// packed bytes, and a sidecar replay re-adds the recorded float64 bit
// patterns the fresh support loop would produce in the same order — so
// Results are bit-identical to a run with no layer that holds a blob
// (which never streams), at any worker count, cache budget and
// disk-tier state, under both utility models and both tie-break
// policies.
func TestStreamingResolveResultInvariant(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 13))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)

	// ~10 KB per unpacked snapshot at N=300: the tiny budget forces
	// eviction and recomputation under the streaming dispatch too.
	const tinyBudget = 40_000

	root := t.TempDir()
	defer routing.CloseSharedDiskStores()

	type variant struct {
		budget int64
		disk   bool
	}
	cases := []struct {
		model    UtilityModel
		sbt      bool
		workers  []int
		variants []variant
	}{
		// The full worker × cache axis under the default model/policy…
		{Outgoing, true, []int{1, 3, 5}, []variant{
			{0, false},
			{tinyBudget, false},
			{tinyBudget, true},
			{-1, true},
		}},
		// …and every other (model, policy) corner against the tiers the
		// streaming dispatch actually branches on: cache + disk (Tier A
		// replay and Tier B streaming), disk alone, and a repacked cache
		// alone.
		{Outgoing, false, []int{3}, []variant{{0, true}, {tinyBudget, false}}},
		{Incoming, true, []int{3}, []variant{{0, true}, {-1, true}}},
		{Incoming, false, []int{5}, []variant{{tinyBudget, true}, {0, false}}},
	}

	var warmRef *Result // (Outgoing, sbt, workers=3) ref for the warm phase below
	for _, c := range cases {
		for _, workers := range c.workers {
			base := Config{
				Model:           c.model,
				Theta:           0.05,
				EarlyAdopters:   adopters,
				StubsBreakTies:  c.sbt,
				Workers:         workers,
				RecordUtilities: true,
				RecordStats:     true,
			}
			ref := MustNew(g, layerFreeConfig(base)).Run()
			if c.model == Outgoing && c.sbt && workers == 3 {
				warmRef = ref
			}
			for _, v := range c.variants {
				cfg := base
				cfg.StaticCacheBytes = v.budget
				if v.disk {
					cfg.StaticStoreDir = root
				}
				label := "model=" + c.model.String() + "/sbt=" + boolStr(c.sbt) +
					"/workers=" + itoa(workers) + "/budget=" + itoa(int(v.budget)) +
					"/disk=" + boolStr(v.disk)
				got := MustNew(g, cfg).Run()
				requireBitIdentical(t, label, ref, got)
			}
		}
	}

	// Warm sweep accounting: after the matrix populated the disk tier
	// with sidecars for every destination, a restarted pristine pass is
	// pure Tier A — every destination replays recorded bits, nothing
	// resolves, nothing misses, and the sidecar reads surface in the
	// disk-tier counters.
	routing.CloseSharedDiskStores()
	warm := Config{
		Model:           Outgoing,
		Theta:           0.05,
		EarlyAdopters:   adopters,
		StubsBreakTies:  true,
		Workers:         3,
		RecordUtilities: true,
		RecordStats:     true,
		StaticStoreDir:  root,
	}
	got := MustNew(g, warm).Run()
	requireBitIdentical(t, "restart-warm", warmRef, got)
	ps := got.PristineStats
	if ps == nil {
		t.Fatal("restart-warm: no pristine stats recorded")
	}
	n := int64(g.N())
	if ps.PristineReplays != n {
		t.Errorf("restart-warm: %d pristine replays, want %d", ps.PristineReplays, n)
	}
	if ps.BaseResolutions != 0 || ps.StreamResolves != 0 {
		t.Errorf("restart-warm: %d resolutions (%d streamed) in a fully replayed pass",
			ps.BaseResolutions, ps.StreamResolves)
	}
	if ps.StaticMisses != 0 {
		t.Errorf("restart-warm: %d static misses", ps.StaticMisses)
	}
	if ps.StaticDiskHits != n {
		t.Errorf("restart-warm: %d disk hits, want %d", ps.StaticDiskHits, n)
	}
	if ps.StaticDiskWrites != 0 {
		t.Errorf("restart-warm: %d disk writes on a warm store", ps.StaticDiskWrites)
	}
	// Every later round balances the same way: each destination is
	// served by a cache or disk hit, a clean replay, or a pristine
	// replay — never recomputed from scratch. (A Tier A replay served
	// from disk ticks both PristineReplays and StaticDiskHits, so the
	// sum can exceed n; a cold recompute would show up as a miss.)
	for r, rd := range got.Rounds {
		st := rd.Stats
		if st == nil {
			t.Fatalf("round %d: no stats", r)
		}
		if st.StaticMisses != 0 {
			t.Errorf("round %d: %d static misses on a warm store", r, st.StaticMisses)
		}
		served := st.StaticHits + st.StaticDiskHits + int64(st.CleanDests) + st.PristineReplays
		if served < n {
			t.Errorf("round %d: %d destinations served, want >= %d", r, served, n)
		}
	}
}

// TestAllInsecureRoundStreams: in a no-adopter game's decision round
// nobody is secure, so with projected stub upgrades off every
// destination is untouchable, its own turn-on included. The round is
// served from the sidecars the pristine pass recorded — no static fetch,
// no base resolution, no projection — and its Result is bit-identical
// to a run with no performance layer, which still runs no projection.
// With ProjectStubUpgrades on, an ISP destination's stubs flip with it
// and can reroute onto it, so those destinations keep the normal path.
func TestAllInsecureRoundStreams(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 13))
	g.SetCPTrafficFraction(0.10)
	defer routing.CloseSharedDiskStores()
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		base := Config{
			Model:           model,
			Theta:           0.05,
			StubsBreakTies:  true,
			Workers:         3,
			RecordUtilities: true,
			RecordStats:     true,
		}
		ref := MustNew(g, layerFreeConfig(base)).Run()
		if len(ref.Rounds) != 1 || ref.Final.SecureASes != 0 {
			t.Fatalf("%v: no-adopter game ran %d rounds to %d secure, want 1 round, 0 secure", model, len(ref.Rounds), ref.Final.SecureASes)
		}
		if st := ref.Rounds[0].Stats; st.ProjResolutions != 0 {
			t.Errorf("%v/no layers: round 1 ran %d projections", model, st.ProjResolutions)
		}

		store := base
		store.DynamicCacheBytes = -1
		store.StaticStoreDir = t.TempDir()
		sidecars := base
		sidecars.DynamicCacheBytes = -1
		// A warm rerun against the store, with every layer at its
		// default: the pristine pass replays sidecars, so no dynamic
		// record exists by round 1 either.
		warm := base
		warm.StaticStoreDir = store.StaticStoreDir
		for _, v := range []struct {
			label string
			cfg   Config
		}{{"store", store}, {"sidecars", sidecars}, {"warm store", warm}} {
			label := fmt.Sprintf("%v/%s", model, v.label)
			got := MustNew(g, v.cfg).Run()
			requireBitIdentical(t, label, ref, got)
			st := got.Rounds[0].Stats
			if fetches := st.StaticHits + st.StaticMisses + st.StaticDiskHits; fetches != 0 || st.BaseResolutions != 0 || st.ProjResolutions != 0 {
				t.Errorf("%s: round 1 made %d static fetches, %d base resolutions, %d projections; want none",
					label, fetches, st.BaseResolutions, st.ProjResolutions)
			}
			if st.PristineReplays != int64(g.N()) {
				t.Errorf("%s: round 1 replayed %d sidecars, want all %d destinations", label, st.PristineReplays, g.N())
			}
			routing.CloseSharedDiskStores()
		}

		stubs := sidecars
		stubs.ProjectStubUpgrades = true
		stubsRef := MustNew(g, layerFreeConfig(stubs)).Run()
		got := MustNew(g, stubs).Run()
		requireBitIdentical(t, fmt.Sprintf("%v/project-stubs", model), stubsRef, got)
		if st := got.Rounds[0].Stats; st.StaticHits == 0 || st.BaseResolutions == 0 {
			t.Errorf("%v/project-stubs: round 1 made %d static fetches and %d base resolutions, want the normal path",
				model, st.StaticHits, st.BaseResolutions)
		}
	}
}

func boolStr(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

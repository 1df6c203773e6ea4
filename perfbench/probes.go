package main

import (
	"fmt"
	"os"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

const (
	// probeDests is about how many destinations the routing-kernel
	// probes sample: every k-th destination with k = N/probeDests.
	probeDests = 128
	// probeCands caps the candidate projections timed per destination.
	probeCands = 16
)

// midGameState rebuilds the deployment state halfway through a game
// from its Result: the early adopters and the stub customers of the
// adopting ISPs (Result.Initial), then the first half of the rounds'
// deploy, disable and stub-upgrade lists. The rebuilt counts must match
// the ones the Result recorded.
func midGameState(g *asgraph.Graph, cfg sim.Config, res *sim.Result) (secure, breaks []bool, err error) {
	secure = make([]bool, g.N())
	for _, a := range cfg.EarlyAdopters {
		secure[a] = true
		if g.IsISP(a) {
			for _, c := range g.Customers(a) {
				if g.IsStub(c) {
					secure[c] = true
				}
			}
		}
	}
	want := res.Initial.SecureASes
	mid := len(res.Rounds) / 2
	for _, rd := range res.Rounds[:mid] {
		for _, i := range rd.Deployed {
			secure[i] = true
		}
		for _, i := range rd.Disabled {
			secure[i] = false
		}
		for _, i := range rd.NewSimplexStubs {
			secure[i] = true
		}
		want = rd.After.SecureASes
	}
	got := 0
	for _, s := range secure {
		if s {
			got++
		}
	}
	if got != want {
		return nil, nil, fmt.Errorf("rebuilt state after %d rounds has %d secure ASes, Result says %d", mid, got, want)
	}
	return secure, sim.DeriveBreaks(g, secure, cfg.StubsBreakTies), nil
}

// runProbes times the routing kernels one destination at a time on a
// sample of the workload's own graph in its mid-game state, and returns
// the median per destination of each (for proj.applyflips_us, of the
// mean per candidate pair). store, when not empty, is a populated
// static store of this graph to time opens and lookups against.
// scratch is a directory the Put probe may create and fill.
func runProbes(g *asgraph.Graph, cfg sim.Config, res *sim.Result, seed int64, store, scratch string) (map[string]float64, error) {
	secure, breaks, err := midGameState(g, cfg, res)
	if err != nil {
		return nil, err
	}
	n := g.N()
	tb := cfg.Tiebreaker
	k := max(1, n/probeDests)
	off := int(seed % int64(k))
	if off < 0 {
		off += k
	}

	var ds, putDS *routing.StaticDiskStore
	out := map[string]float64{}
	if store != "" {
		t0 := time.Now()
		ds, err = routing.OpenStaticDiskStore(store, g, tb)
		out["disk.open_s"] = time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("opening populated store: %w", err)
		}
		defer ds.Close()
		if ds.Entries() == 0 {
			return nil, fmt.Errorf("populated store %s holds no statics", store)
		}
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(scratch)
		if putDS, err = routing.OpenStaticDiskStore(scratch, g, tb); err != nil {
			return nil, fmt.Errorf("opening scratch store: %w", err)
		}
		defer putDS.Close()
	}

	wsA, wsB := routing.NewWorkspace(g), routing.NewWorkspace(g)
	sr := routing.NewStreamStatic(g)
	var tree, proj routing.Tree
	flipped, flipBreaks := make([]bool, n), make([]bool, n)
	var blob []byte
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	isps := g.Nodes(asgraph.ISP)

	for d := int32(off); int(d) < n; d += int32(k) {
		t0 := time.Now()
		s := wsA.PrepareDest(d, tb)
		add("static.bfs_us", us(time.Since(t0)))

		t0 = time.Now()
		blob = routing.AppendPacked(blob[:0], s, g)
		add("static.encode_us", us(time.Since(t0)))
		add("static.blob_bytes", float64(len(blob)))

		t0 = time.Now()
		_, err := wsB.DecodePackedTrusted(blob)
		add("static.decode_us", us(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("decoding destination %d: %w", d, err)
		}

		tree.Clear(n)
		t0 = time.Now()
		wsA.ResolveInto(&tree, s, secure, breaks, nil, nil, tb)
		add("resolve.us", us(time.Since(t0)))

		t0 = time.Now()
		err = sr.Resolve(blob, secure, breaks, tb)
		add("resolve.stream_us", us(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("stream-resolving destination %d: %w", d, err)
		}

		wsA.PrepareDelta(s)
		t0 = time.Now()
		wsA.PrepareFlipEffects(s, &tree, secure, breaks, tb)
		add("proj.predict_us", us(time.Since(t0)))

		// Candidate pairs the engine would not skip for having zero
		// utility: outgoing pays an insecure ISP only over a customer
		// route, incoming pays any ISP only as some node's provider.
		var cands []int32
		for _, c := range isps {
			if c == d {
				continue
			}
			if cfg.Model == sim.Outgoing {
				if secure[c] || s.Type[c] != routing.CustomerRoute {
					continue
				}
			} else if !s.IsProviderParent(c) {
				continue
			}
			cands = append(cands, c)
		}
		if len(cands) > 0 {
			step := max(1, len(cands)/probeCands)
			proj.CopyFrom(&tree)
			pairs := 0
			one := []int32{0}
			t0 = time.Now()
			for i := 0; i < len(cands) && pairs < probeCands; i += step {
				c := cands[i]
				one[0] = c
				flipped[c] = true
				flipBreaks[c] = !g.IsStub(c) || cfg.StubsBreakTies
				wsA.ApplyFlips(&proj, s, secure, breaks, flipped, flipBreaks, one, tb)
				wsA.RevertFlips(&proj)
				flipped[c] = false
				pairs++
			}
			add("proj.applyflips_us", us(time.Since(t0))/float64(pairs))
		}

		if ds != nil {
			t0 = time.Now()
			got := ds.Lookup(d)
			add("disk.lookup_us", us(time.Since(t0)))
			if got == nil {
				return nil, fmt.Errorf("populated store misses destination %d", d)
			}
			t0 = time.Now()
			ok := putDS.Put(d, blob)
			add("disk.put_us", us(time.Since(t0)))
			if !ok {
				return nil, fmt.Errorf("scratch store refused destination %d", d)
			}
		}
	}
	for name, xs := range samples {
		out[name] = median(xs)
	}
	return out, nil
}

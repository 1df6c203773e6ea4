package main

import (
	"sort"

	"sbgp/internal/sim"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; TestBenchmarkJSON keeps them in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"cold_s", "s"},
	{"warm_s", "s"},
	{"cpu_s", "s"},
}

// perLayer are the metrics of a traced run (--trace 1). Metrics of a
// layer a workload does not reach read 0.
var perLayer = []metricDef{
	{"topogen.generate_s", "s"},
	{"sim.new_s", "s"},
	{"sim.pristine_s", "s"},
	{"sim.rounds_s", "s"},
	{"sim.decide_s", "s"},
	{"sim.rounds", "count"},
	{"exec.shard_wall_max_s", "s"},
	{"exec.straggler", "ratio"},
	{"static.hits", "count"},
	{"static.misses", "count"},
	{"static.cache_bytes", "bytes"},
	{"static.packed_bytes", "bytes"},
	{"static.bfs_us", "us"},
	{"static.encode_us", "us"},
	{"static.decode_us", "us"},
	{"static.blob_bytes", "bytes"},
	{"disk.hits", "count"},
	{"disk.bytes_read", "bytes"},
	{"disk.writes", "count"},
	{"disk.bytes_on_disk", "bytes"},
	{"disk.open_s", "s"},
	{"disk.put_us", "us"},
	{"disk.lookup_us", "us"},
	{"resolve.base", "count"},
	{"resolve.stream", "count"},
	{"resolve.replays", "count"},
	{"resolve.records", "count"},
	{"resolve.replay_ratio", "ratio"},
	{"resolve.us", "us"},
	{"resolve.stream_us", "us"},
	{"proj.resolutions", "count"},
	{"proj.unchanged", "count"},
	{"proj.skip_zero_util", "count"},
	{"proj.skip_insecure_dest", "count"},
	{"proj.skip_dest_flip", "count"},
	{"proj.skip_turn_off", "count"},
	{"proj.skip_turn_on", "count"},
	{"proj.nodes_recomputed", "count"},
	{"proj.nodes_reused", "count"},
	{"proj.survive_ratio", "ratio"},
	{"proj.predict_us", "us"},
	{"proj.applyflips_us", "us"},
	{"dyn.clean", "count"},
	{"dyn.dirty", "count"},
	{"dyn.clean_ratio", "ratio"},
	{"dyn.bytes_max", "bytes"},
	{"dyn.evictions", "count"},
	{"dist.handshake_s", "s"},
	{"dist.transport_s", "s"},
	{"dist.bytes_out", "bytes"},
	{"dist.bytes_in", "bytes"},
	{"dist.workers_lost", "count"},
	{"dist.shards_reassigned", "count"},
	{"dist.shards_migrated", "count"},
	{"trace.overhead", "ratio"},
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// unitLayers sums one traced unit's per-layer work: the engine counters
// of every pass of every simulation (Result.PristineStats and each
// Round's Stats), and the timing wrapper's view of every executor call.
// Snapshot counters (cache sizes, lifetime evictions) take their
// maximum instead.
func unitLayers(u *unit) map[string]float64 {
	m := map[string]float64{}
	var dests, skips, straggleMean float64
	for i := range u.sims {
		s := &u.sims[i]
		m["sim.rounds"] += float64(len(s.res.Rounds))
		m["sim.decide_s"] += s.decide.Seconds()
		for k, c := range s.calls {
			if k == 0 {
				m["sim.pristine_s"] += c.wall.Seconds()
			} else {
				m["sim.rounds_s"] += c.wall.Seconds()
			}
			m["exec.shard_wall_max_s"] += c.shardMax.Seconds()
			if c.shards > 0 {
				straggleMean += c.shardSum.Seconds() / float64(c.shards)
			}
			if s.dist {
				m["dist.transport_s"] += (c.wall - c.shardMax).Seconds()
				m["dist.workers_lost"] += float64(c.info.WorkersLost)
				m["dist.shards_reassigned"] += float64(c.info.ShardsReassigned)
				m["dist.shards_migrated"] += float64(c.info.ShardsMigrated)
			}
		}
		if s.dist {
			m["dist.bytes_out"] += float64(s.bytesOut)
			m["dist.bytes_in"] += float64(s.bytesIn)
		}
		stats := []*sim.RoundStats{s.res.PristineStats}
		for _, rd := range s.res.Rounds {
			stats = append(stats, rd.Stats)
		}
		for _, st := range stats {
			dests += float64(st.Destinations)
			skips += float64(st.Skipped())
			m["static.hits"] += float64(st.StaticHits)
			m["static.misses"] += float64(st.StaticMisses)
			m["static.cache_bytes"] = max(m["static.cache_bytes"], float64(st.StaticCacheBytes))
			m["static.packed_bytes"] = max(m["static.packed_bytes"], float64(st.StaticPackedBytes))
			m["disk.hits"] += float64(st.StaticDiskHits)
			m["disk.bytes_read"] += float64(st.StaticDiskBytesRead)
			m["disk.writes"] += float64(st.StaticDiskWrites)
			m["resolve.base"] += float64(st.BaseResolutions)
			m["resolve.stream"] += float64(st.StreamResolves)
			m["resolve.replays"] += float64(st.PristineReplays)
			m["resolve.records"] += float64(st.PristineRecords)
			m["proj.resolutions"] += float64(st.ProjResolutions)
			m["proj.unchanged"] += float64(st.ProjUnchanged)
			m["proj.skip_zero_util"] += float64(st.SkipZeroUtil)
			m["proj.skip_insecure_dest"] += float64(st.SkipInsecureDest)
			m["proj.skip_dest_flip"] += float64(st.SkipDestFlip)
			m["proj.skip_turn_off"] += float64(st.SkipTurnOff)
			m["proj.skip_turn_on"] += float64(st.SkipTurnOn)
			m["proj.nodes_recomputed"] += float64(st.NodesRecomputed)
			m["proj.nodes_reused"] += float64(st.NodesReused)
			m["dyn.clean"] += float64(st.CleanDests)
			m["dyn.dirty"] += float64(st.DirtyDests)
			m["dyn.bytes_max"] = max(m["dyn.bytes_max"], float64(st.DynCacheBytes))
			m["dyn.evictions"] = max(m["dyn.evictions"], float64(st.DynCacheEvictions))
		}
	}
	m["exec.straggler"] = ratio(m["exec.shard_wall_max_s"], straggleMean)
	m["resolve.replay_ratio"] = ratio(m["resolve.replays"], dests)
	m["proj.survive_ratio"] = ratio(m["proj.resolutions"], m["proj.resolutions"]+skips)
	m["dyn.clean_ratio"] = ratio(m["dyn.clean"], m["dyn.clean"]+m["dyn.dirty"])
	m["disk.bytes_on_disk"] = float64(u.storeBytes)
	return m
}

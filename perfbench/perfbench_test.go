package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"sbgp/internal/sim"
)

func TestMain(m *testing.M) {
	// The dist harness spawns workers from the running binary, which
	// under go test is this test binary.
	if isWorker() {
		os.Exit(serveWorker())
	}
	os.Exit(m.Run())
}

// TestHarnessMatchesDefaultExecutor checks that the timing wrapper,
// untraced and traced, and the dist harness reproduce the digest of the
// Sim's default executor in both utility models.
func TestHarnessMatchesDefaultExecutor(t *testing.T) {
	for _, model := range []sim.UtilityModel{sim.Outgoing, sim.Incoming} {
		sp := spec{name: "small", n: 600, model: model, seeded: true}
		want, err := referenceDigest(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name   string
			dist   bool
			traced bool
		}{{"untraced", false, false}, {"traced", false, true}, {"dist", true, true}} {
			sp.dist = c.dist
			var rec *recorder
			if c.traced {
				rec = newRecorder()
			}
			s, err := runSim(sp, 7, "", rec, false)
			if err != nil {
				t.Fatalf("%v %s: %v", model, c.name, err)
			}
			if got := digest(s.res); got != want {
				t.Errorf("%v %s: digest %s, default executor %s", model, c.name, got, want)
			}
			if len(s.res.Rounds) < 3 {
				t.Errorf("%v %s: the game stopped after %d rounds", model, c.name, len(s.res.Rounds))
			}
			if len(s.calls) != len(s.res.Rounds)+1 {
				t.Errorf("%v %s: %d executor calls for %d rounds", model, c.name, len(s.calls), len(s.res.Rounds))
			}
			if c.traced && s.res.PristineStats == nil {
				t.Errorf("%v %s: traced run recorded no stats", model, c.name)
			}
			if c.dist && (s.bytesIn == 0 || s.bytesOut == 0 || s.workerKiB == 0) {
				t.Errorf("%v dist: bytes in %d, out %d, worker RSS %d KiB", model, s.bytesIn, s.bytesOut, s.workerKiB)
			}
		}
	}
}

// TestSweepUnitReadsWarmStore runs a small sweep-disk unit: every rerun
// must match the cold run's digest, and the reruns must be served by
// the store the cold run wrote.
func TestSweepUnitReadsWarmStore(t *testing.T) {
	sp := spec{name: "small-sweep", n: 600, model: sim.Outgoing, disk: true}
	want, err := referenceDigest(sp, 42)
	if err != nil {
		t.Fatal(err)
	}
	p := &params{spec: sp, instance: 42, dir: t.TempDir()}
	u, failed, err := runUnit(p, newRecorder(), 0, want, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 || len(u.sims) != warmReruns+1 {
		t.Fatalf("%d of %d simulations failed", failed, len(u.sims))
	}
	m := unitLayers(&u)
	if m["disk.writes"] == 0 || m["disk.hits"] == 0 || u.storeBytes == 0 {
		t.Errorf("disk writes %v, hits %v, bytes on disk %d", m["disk.writes"], m["disk.hits"], u.storeBytes)
	}
	probes, err := runProbes(u.sims[0].g, u.sims[0].cfg, u.sims[0].res, 3, u.storeDir, t.TempDir()+"/put")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"static.bfs_us", "disk.lookup_us", "disk.put_us", "resolve.us", "static.blob_bytes"} {
		if probes[name] <= 0 {
			t.Errorf("probe %s = %v", name, probes[name])
		}
	}
}

func TestSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 40},  // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 1, Start: 50, End: 60},  // a grandchild does not count
	}}
	if got := r.selfTime(0); got != 100-30-10 {
		t.Errorf("self time %d, want 60", got)
	}
}

// TestRecordedDigests checks every workload has a recorded digest for
// its own instance and the held-out instance 2, that --seed 2 runs the
// held-out instance, and that a seed without a digest runs the
// workload's own.
func TestRecordedDigests(t *testing.T) {
	for _, sp := range specs {
		for _, inst := range []int64{sp.instance, 2} {
			if _, ok := recorded[sp.digestOf][inst]; !ok {
				t.Errorf("%s: no digest for instance %d", sp.name, inst)
			}
		}
		if got := instanceFor(sp, 2); got != 2 {
			t.Errorf("%s: seed 2 runs instance %d, want 2", sp.name, got)
		}
		if got := instanceFor(sp, 5); got != sp.instance {
			t.Errorf("%s: seed 5 runs instance %d, want %d", sp.name, got, sp.instance)
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the program: the same
// workloads, the same metrics with the same units, and names made of
// letters, digits, '_', '.' and '-'.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !valid.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	if len(b.Workloads) != len(specs) {
		t.Errorf("%d workloads, program has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		check(w.Name)
		if i < len(specs) && w.Name != specs[i].name {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, specs[i].name)
		}
	}
	for _, list := range []struct {
		json []struct{ Name, Unit string }
		prog []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(list.json) != len(list.prog) {
			t.Errorf("%d metrics, program has %d", len(list.json), len(list.prog))
			continue
		}
		for i, m := range list.json {
			check(m.Name)
			if m.Name != list.prog[i].name || m.Unit != list.prog[i].unit {
				t.Errorf("metric %d is %s [%s], program has %s [%s]", i, m.Name, m.Unit, list.prog[i].name, list.prog[i].unit)
			}
		}
	}
}

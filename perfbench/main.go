// Command perfbench is the repository benchmark. It runs one named
// workload of the deployment game for a fixed time budget, times its
// own calls into the simulator's public functions, checks every Result
// against a recorded digest, and prints its metrics as one JSON object
// on the last line of standard output:
//
//	python3 perfbench/run.py --workload game-out --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced simulations and reports the per-layer
// metrics, writing its spans under .bench_build/perfbench/spans.
// README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sbgp/internal/adopters"
	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
	"sbgp/internal/topogen"
)

// spec defines a workload.
type spec struct {
	name     string
	n        int
	model    sim.UtilityModel
	seeded   bool   // cps+top5 early adopters; false runs the base-only sweep
	instance int64  // topology and tie-break seed unless --seed names a recorded one
	dist     bool   // rounds run on worker processes
	disk     bool   // a unit is a cold run into a fresh store plus warm reruns
	digestOf string // the workload whose recorded digests this one must match
}

var specs = []spec{
	{name: "game-out", n: 5000, model: sim.Outgoing, seeded: true, instance: 7, digestOf: "game-out"},
	{name: "game-in", n: 5000, model: sim.Incoming, seeded: true, instance: 7, digestOf: "game-in"},
	{name: "sweep-disk", n: 10000, model: sim.Outgoing, instance: 42, disk: true, digestOf: "sweep-disk"},
	{name: "game-out-dist", n: 5000, model: sim.Outgoing, seeded: true, instance: 7, dist: true, digestOf: "game-out"},
}

const (
	// shards is the logical shard count of every workload: the
	// in-process worker count and the number of dist worker processes.
	// Equal counts make game-out-dist reproduce game-out bit for bit.
	shards = 2
	// minUnits is the fewest units a run measures, even past its budget:
	// an untraced run then has two samples where one unit fills the
	// budget (game-in, sweep-disk), and a traced run has one untraced
	// and one traced unit.
	minUnits = 2
	// warmReruns is how many warm reruns follow each cold sweep-disk run.
	warmReruns = 8
	// setupReps is how many times a run times set-up alone before each
	// unit. setup_s is the median of all of them. Spread over the run,
	// they see the host's speed over the whole run, as the units do.
	// The set-up of the measured simulations does not count, because on
	// sweep-disk it reopens a populated store.
	setupReps = 10
	// workDir, under the checkout's build directory, holds the static
	// stores and span files.
	workDir = ".bench_build/perfbench"
)

func main() {
	if isWorker() {
		os.Exit(serveWorker())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// params is one invocation's configuration.
type params struct {
	spec     spec
	instance int64
	seed     int64
	budget   time.Duration
	traced   bool
	dir      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "game-out", "workload name")
	seed := fl.Int64("seed", 7, "picks the instance (topology and tie-break seed) when a digest is recorded for it, else the workload's own; also picks the probes' destination sample")
	secs := fl.Int("seconds", 25, "time budget of the measured phase")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from traced simulations, 0 end-to-end metrics")
	printDigest := fl.Bool("digest", false, "run instance --seed once on the default executor and print its digest")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	p := &params{seed: *seed, budget: time.Duration(*secs) * time.Second, traced: *trace == 1, dir: workDir}
	found := false
	for _, s := range specs {
		if s.name == *workload {
			p.spec, found = s, true
		}
	}
	if !found || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *workload, *secs, *trace)
		return 2
	}
	if *printDigest {
		d, err := referenceDigest(p.spec, p.seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s instance %d: %s\n", p.spec.digestOf, p.seed, d)
		return 0
	}
	p.instance = instanceFor(p.spec, p.seed)
	want := recorded[p.spec.digestOf][p.instance]
	out, err := benchmark(p, want, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
	}
	line, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// instanceFor is the instance a run of the workload with this seed
// simulates: the seed itself when its digest is recorded, so the
// held-out instance is one seed away, and the workload's own otherwise.
func instanceFor(sp spec, seed int64) int64 {
	if _, ok := recorded[sp.digestOf][seed]; ok {
		return seed
	}
	return sp.instance
}

// build generates the workload's graph and game configuration: the
// calibrated synthetic topology, a 10% content-provider traffic share,
// θ=0.05, stubs breaking ties, and the hash tie-break seeded like the
// topology, as sbgpsim -seed does.
func build(sp spec, instance int64, rec *recorder) (*asgraph.Graph, sim.Config, time.Duration, error) {
	tok := rec.begin("topogen.Generate", -1)
	g, err := topogen.Generate(topogen.Default(sp.n, instance))
	gen := rec.end(tok)
	if err != nil {
		return nil, sim.Config{}, gen, err
	}
	g.SetCPTrafficFraction(0.10)
	cfg := sim.Config{
		Model:          sp.model,
		Theta:          0.05,
		StubsBreakTies: true,
		Tiebreaker:     routing.HashTiebreaker{Seed: uint64(instance)},
		Workers:        shards,
	}
	if sp.seeded {
		cfg.EarlyAdopters = adopters.CPsPlusTopISPs(g, 5)
	}
	return g, cfg, gen, nil
}

// referenceDigest runs one simulation of the workload on the Sim's
// default executor, the reference the recorded digests come from.
func referenceDigest(sp spec, instance int64) (string, error) {
	g, cfg, _, err := build(sp, instance, nil)
	if err != nil {
		return "", err
	}
	s, err := sim.New(g, cfg)
	if err != nil {
		return "", err
	}
	res, err := s.RunE()
	if err != nil {
		return "", err
	}
	return digest(res), nil
}

// simSample is one simulation: its set-up, its timed RunE, and what the
// timing wrapper saw.
type simSample struct {
	setup, gen, simNew time.Duration
	shake              time.Duration // dist.NewCoordinator
	wall, pristine     time.Duration
	decide             time.Duration // RunE self time; traced only
	res                *sim.Result
	g                  *asgraph.Graph
	cfg                sim.Config
	calls              []callRecord
	dist               bool
	bytesIn, bytesOut  int64
	workerKiB          int64
	cpu                time.Duration // this process plus reaped workers
	peakKiB            int64         // peak resident set, workers added
}

// resetPeakRSS restarts the kernel's peak resident set count for this
// process. It needs Linux 4.0 or later; on an older kernel the write
// fails and VmHWM stays the process's lifetime peak, which is still an
// upper bound.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSKiB reads the process's peak resident set since the last reset.
func peakRSSKiB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			v, _ := strconv.ParseInt(f[1], 10, 64)
			return v
		}
	}
	return 0
}

// cpuTime is the CPU time this process and its reaped children used.
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// runSim sets up one simulation of the workload and, unless setupOnly,
// runs it. storeDir roots its static store ("" for none). With a
// recorder every call becomes a span and the Sim records RoundStats.
func runSim(sp spec, instance int64, storeDir string, rec *recorder, setupOnly bool) (simSample, error) {
	var s simSample
	if rec != nil {
		rec.run++
	}
	resetPeakRSS()
	t0 := time.Now()
	g, cfg, gen, err := build(sp, instance, rec)
	s.gen = gen
	if err != nil {
		return s, err
	}
	cfg.StaticStoreDir = storeDir
	cfg.RecordStats = rec != nil
	ex := &timedExecutor{rec: rec, parent: -1}
	var dr *distRun
	if sp.dist {
		if dr, err = startDist(g, cfg, shards, rec); err != nil {
			return s, err
		}
		defer dr.close()
		s.dist, s.shake = true, dr.shake
		ex.inner = dr.coord
	}
	tok := rec.begin("sim.New", -1)
	if !sp.dist {
		all := make([]int, shards)
		for i := range all {
			all[i] = i
		}
		eng, err := sim.NewShardEngine(g, cfg, all, shards)
		if err != nil {
			return s, err
		}
		ex.inner = shardExec{eng}
	}
	cfg.Executor = ex
	sm, err := sim.New(g, cfg)
	s.simNew = rec.end(tok)
	s.setup = time.Since(t0)
	if err != nil || setupOnly {
		return s, err
	}
	// The sample keeps the configuration for the probes, but not the
	// executor: that would keep the engine's caches alive.
	s.g, s.cfg = g, cfg
	s.cfg.Executor = nil
	cpu0 := cpuTime()
	res, wall, pristine, runID, err := ex.runE(sm)
	if err != nil {
		return s, err
	}
	s.res, s.wall, s.pristine = res, wall, pristine
	s.calls = append([]callRecord(nil), ex.calls...)
	if rec != nil {
		s.decide = rec.selfTime(runID)
	}
	if dr != nil {
		dr.close()
		s.bytesIn, s.bytesOut, s.workerKiB = dr.in.Load(), dr.out.Load(), dr.workerKiB
	}
	s.cpu = cpuTime() - cpu0
	s.peakKiB = peakRSSKiB() + s.workerKiB
	return s, nil
}

// unit is the repeated piece of a run: one simulation for the games; a
// cold run into a fresh static store followed by warmReruns warm reruns
// for sweep-disk. Its wall time is cold plus warm: for a game, the
// pristine pass (where every destination's statics are computed cold)
// plus the rounds after it; for sweep-disk, the cold run plus the
// median warm rerun. Its peak is the largest peak resident set of its
// simulations: on sweep-disk, the cold run's.
type unit struct {
	traced           bool
	wall, cold, warm time.Duration
	cpu              time.Duration
	peakKiB          int64
	sims             []simSample
	storeDir         string
	storeBytes       int64
}

// runUnit runs one unit and checks every Result against want. A
// mismatch counts in failed; an error ends the unit.
func runUnit(p *params, rec *recorder, k int, want string, log io.Writer) (u unit, failed int, err error) {
	u.traced = rec != nil
	add := func(s simSample) {
		// Return the simulation's garbage to the OS, so the next one
		// starts from the heap a fresh process would have: it pays its
		// own page faults, and its peak resident set holds none of this
		// one's garbage.
		debug.FreeOSMemory()
		u.sims = append(u.sims, s)
		u.peakKiB = max(u.peakKiB, s.peakKiB)
		if got := digest(s.res); got != want {
			failed++
			fmt.Fprintf(log, "perfbench: %s instance %d: digest %s, want %s\n", p.spec.name, p.instance, got, want)
		}
		fmt.Fprintf(log, "perfbench: %s traced=%v: wall %.3fs cpu %.3fs peak %d MiB, %d rounds\n",
			p.spec.name, u.traced, s.wall.Seconds(), s.cpu.Seconds(), s.peakKiB/1024, len(s.res.Rounds))
	}
	if !p.spec.disk {
		s, err := runSim(p.spec, p.instance, "", rec, false)
		if err != nil {
			return u, failed, err
		}
		add(s)
		u.wall, u.cold, u.warm = s.wall, s.pristine, s.wall-s.pristine
		u.cpu = s.cpu
		return u, failed, nil
	}
	u.storeDir = filepath.Join(p.dir, fmt.Sprintf("store-%d-%d", os.Getpid(), k))
	if err := os.RemoveAll(u.storeDir); err != nil {
		return u, failed, err
	}
	// Every simulation opens the store the way a fresh process would.
	defer routing.CloseSharedDiskStores()
	var warm, warmCPU []float64
	for i := 0; i <= warmReruns; i++ {
		s, err := runSim(p.spec, p.instance, u.storeDir, rec, false)
		routing.CloseSharedDiskStores()
		if err != nil {
			return u, failed, err
		}
		add(s)
		if i == 0 {
			u.cold, u.cpu = s.wall, s.cpu
			if u.storeBytes, err = dirBytes(u.storeDir); err != nil {
				return u, failed, err
			}
		} else {
			warm = append(warm, s.wall.Seconds())
			warmCPU = append(warmCPU, s.cpu.Seconds())
		}
	}
	u.warm = time.Duration(median(warm) * float64(time.Second))
	u.cpu += time.Duration(median(warmCPU) * float64(time.Second))
	u.wall = u.cold + u.warm
	return u, failed, nil
}

// timeSetups times set-up alone setupReps times, with the same calls a
// simulation's set-up makes. A sweep-disk set-up opens a fresh, empty
// store.
func timeSetups(p *params) ([]float64, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		dir := ""
		if p.spec.disk {
			dir = filepath.Join(p.dir, fmt.Sprintf("setup-%d", os.Getpid()))
		}
		s, err := runSim(p.spec, p.instance, dir, nil, true)
		routing.CloseSharedDiskStores()
		if dir != "" {
			os.RemoveAll(dir)
		}
		if err != nil {
			return setups, err
		}
		setups = append(setups, s.setup.Seconds())
	}
	return setups, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's last line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchmark runs units until the budget is spent (at least minUnits; a
// traced run alternates untraced and traced units), then reports the
// end-to-end or per-layer metrics.
func benchmark(p *params, want string, log io.Writer) (out output, err error) {
	out.Metrics = map[string]metric{}
	var rec *recorder
	if p.traced {
		rec = newRecorder()
	}
	defer func() {
		out.Correct = err == nil && out.Failed == 0 && out.Attempted > 0
		if out.Attempted == 0 {
			out.Attempted = 1
			out.Failed = 1
		}
	}()

	var units []unit
	var setups []float64
	// Only the newest traced sweep-disk store outlives its unit: the
	// probes read it after the timed phase.
	keep := ""
	defer func() {
		if keep != "" {
			os.RemoveAll(keep)
		}
	}()
	start := time.Now()
	for k := 0; ; k++ {
		s, err := timeSetups(p)
		setups = append(setups, s...)
		if err != nil {
			out.Attempted++
			out.Failed++
			return out, fmt.Errorf("set-up: %w", err)
		}
		var r *recorder
		if p.traced && k%2 == 1 {
			r = rec
		}
		u, failed, err := runUnit(p, r, k, want, log)
		out.Attempted += len(u.sims)
		out.Failed += failed
		if u.storeDir != "" {
			if u.traced && err == nil {
				if keep != "" {
					os.RemoveAll(keep)
				}
				keep = u.storeDir
			} else {
				os.RemoveAll(u.storeDir)
			}
		}
		if err != nil {
			out.Attempted++
			out.Failed++
			return out, err
		}
		units = append(units, u)
		elapsed := time.Since(start)
		if len(units) >= minUnits && elapsed+elapsed/time.Duration(len(units)) > p.budget {
			break
		}
	}

	var walls, colds, warms, tWalls, cpus, peaks []float64
	for _, u := range units {
		if u.traced {
			tWalls = append(tWalls, u.wall.Seconds())
			continue
		}
		walls = append(walls, u.wall.Seconds())
		peaks = append(peaks, float64(u.peakKiB)/1024)
		cpus = append(cpus, u.cpu.Seconds())
		colds = append(colds, u.cold.Seconds())
		warms = append(warms, u.warm.Seconds())
	}
	fmt.Fprintf(log, "perfbench: %s instance %d seed %d: %d units, %d simulations, %d failed\n",
		p.spec.name, p.instance, p.seed, len(units), out.Attempted, out.Failed)

	if !p.traced {
		vals := map[string]float64{
			"wall_s":      median(walls),
			"setup_s":     median(setups),
			"peak_rss_mb": median(peaks),
			"cold_s":      median(colds),
			"warm_s":      median(warms),
			"cpu_s":       median(cpus),
		}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return out, nil
	}

	// Per-layer metrics: medians over the traced units.
	var last *unit
	per := map[string][]float64{}
	var gens, news, shakes []float64
	for i := range units {
		u := &units[i]
		if !u.traced {
			continue
		}
		last = u
		for name, v := range unitLayers(u) {
			per[name] = append(per[name], v)
		}
		for _, s := range u.sims {
			gens = append(gens, s.gen.Seconds())
			news = append(news, s.simNew.Seconds())
			if s.dist {
				shakes = append(shakes, s.shake.Seconds())
			}
		}
	}
	vals := map[string]float64{
		"topogen.generate_s": median(gens),
		"sim.new_s":          median(news),
		"dist.handshake_s":   median(shakes),
		"trace.overhead":     median(tWalls)/median(walls) - 1,
	}
	for name, xs := range per {
		vals[name] = median(xs)
	}
	probe := last.sims[0]
	probes, err := runProbes(probe.g, probe.cfg, probe.res, p.seed, last.storeDir,
		filepath.Join(p.dir, fmt.Sprintf("probe-%d", os.Getpid())))
	if err != nil {
		out.Failed++
		return out, fmt.Errorf("routing-kernel probes: %w", err)
	}
	for name, v := range probes {
		vals[name] = v
	}
	for _, m := range perLayer {
		out.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	spans := filepath.Join(p.dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", p.spec.name, p.seed))
	if err := rec.write(spans); err != nil {
		return out, fmt.Errorf("writing spans: %w", err)
	}
	return out, nil
}

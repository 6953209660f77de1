// Command sweep regenerates the paper's figures and tables as text, one
// experiment per invocation (or all of them).
//
// Usage:
//
//	sweep -fig 3          # Figure 3: stock TCP, 1500 vs 9000 MTU
//	sweep -fig 4          # Figure 4: oversized windows + MMRBC + UP
//	sweep -fig 5          # Figure 5: MTUs 8160 and 16000
//	sweep -fig 6          # Figure 6: latency with coalescing
//	sweep -fig 7          # Figure 7: latency without coalescing
//	sweep -fig 8          # Figure 8: window audit
//	sweep -table 1        # Table 1: AIMD recovery times
//	sweep -exp ladder     # §3.3 optimization ladder summary
//	sweep -exp wan        # §4 record run
//	sweep -exp multiflow  # §3.5.2 aggregation experiments
//	sweep -exp compare    # §3.5.3 interconnect comparison
//	sweep -exp anecdotes  # §3.4 E7505 / Itanium results
//	sweep -exp mtu        # extension: MTU sweep (allocator-block sawtooth)
//	sweep -all            # everything
//	sweep -full ...       # paper-resolution payload grid (slower)
//	sweep -json ...       # also write BENCH_sweep.json (figure id, points, peak, wall)
//	sweep -telemetry DIR  # export per-point instrument bundles (JSONL + CSV) into DIR
//	sweep -chaos 500      # randomized fault-injection soak with the invariant auditor
//	sweep -replay F.json  # replay a crash bundle and report reproduction
//	sweep -topology F.json # compile a declarative topology file and run its flows
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"tengig/internal/bench"
	"tengig/internal/compare"
	"tengig/internal/core"
	"tengig/internal/prof"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

var (
	fig      = flag.Int("fig", 0, "figure number to regenerate (3-8)")
	table    = flag.Int("table", 0, "table number to regenerate (1)")
	exp      = flag.String("exp", "", "named experiment: ladder|wan|multiflow|compare|anecdotes|mtu")
	all      = flag.Bool("all", false, "run everything")
	full     = flag.Bool("full", false, "paper-resolution sweep (32768 writes, fine payload grid)")
	csv      = flag.Bool("csv", false, "emit CSV rows instead of aligned tables (for plotting)")
	seed     = flag.Int64("seed", 1, "simulation seed")
	parallel = flag.Bool("parallel", false, "fan independent simulation points across one worker per CPU (identical rows, less wall-clock)")
	nworkers = flag.Int("workers", 0, "worker-pool size for -parallel (0 = GOMAXPROCS)")
	verify   = flag.Bool("verify-determinism", false, "run a sampled sweep subset twice — serial and parallel — and diff the result rows")
	jsonOut  = flag.Bool("json", false, "write BENCH_sweep.json: per-sweep figure id, points, peak, wall time")
	telemDir = flag.String("telemetry", "", "directory for per-run telemetry bundles (JSONL + CSV); enables instrument sampling on every sweep point")
	chaos    = flag.Int("chaos", 0, "run N randomized fault-injection campaigns with the invariant auditor attached; non-zero exit on any violation")
	replay   = flag.String("replay", "", "replay a crash-bundle JSON written by a contained sweep/chaos failure and report whether it reproduces")
	topoFile = flag.String("topology", "", "compile a declarative topology file (JSON), run its flows, and report per-flow goodput and switch counters")
	shardsF  = flag.Int("shards", 0, "run -topology under the conservative parallel-DES runner with N sharded engines (0 = sequential; output is byte-identical either way)")
	pdesOut  = flag.String("pdes-bench", "", "measure the parallel runner's wall-clock scaling (shards 1/2/4) over the benchmark topology and write BENCH_pdes.json-shaped output to this path")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProf  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	metricsF = flag.Bool("metrics", false, "aggregate fleet-level metrics (FCT percentiles, Jain's fairness, per-class goodput) across every run and print the report")
	progress = flag.Bool("progress", false, "print a live progress line (points completed / ETA) to stderr while sweeps run")
	baseline = flag.String("baseline", "", "comma-separated BENCH_*.json baselines to compare this run against (sweep files check simulated Gb/s; kernel files re-measure allocs/op in-process; pdes files re-measure the sharded speedup)")
	gateF    = flag.Bool("gate", false, "exit non-zero when a -baseline comparison finds a regression past -gate-threshold")
	gateThr  = flag.Float64("gate-threshold", 0.02, "relative throughput loss that counts as a sweep regression (0.02 = 2%)")
	ckptPath = flag.String("checkpoint", "", "journal every completed sweep point into this JSONL file; a killed campaign restarts from the journal with -resume")
	resumeF  = flag.Bool("resume", false, "resume the -checkpoint journal: restore completed points instead of re-simulating them (refused if the journal was written by a different campaign configuration)")
	limitEvF = flag.Uint64("limit-events", 0, "abort any sweep point that exceeds this simulated-event budget (0 = unlimited); used to rehearse mid-campaign kills")
	skipF    = flag.Bool("skip-failures", false, "contain per-point failures instead of aborting the run; failed points are reported at exit with code 3")
	retriesF = flag.Int("retries", 0, "with -skip-failures, re-run a failing point up to N extra times (capped exponential backoff between attempts) before its failure stands")
	crashDir = flag.String("crashdir", "", "with -skip-failures, write a replayable crash-bundle JSON here for every contained panic")
)

// workers returns the experiment-level worker count from the flags:
// serial unless -parallel is set.
func workers() int {
	if !*parallel {
		return 1
	}
	if *nworkers > 0 {
		return *nworkers
	}
	return -1 // one per CPU
}

func main() {
	log.SetFlags(0)
	flag.Parse()
	stopProfiles := prof.Start(*cpuProf, *memProf)
	defer stopProfiles()
	if *verify {
		verifyDeterminism()
		return
	}
	if *replay != "" {
		replayBundle(*replay)
		return
	}
	if *chaos != 0 {
		runChaos(*chaos)
		return
	}
	if *pdesOut != "" {
		writePDESBench(*pdesOut)
		return
	}
	if *topoFile != "" {
		if *shardsF > 0 {
			runTopologySharded(*topoFile, *shardsF)
		} else {
			runTopology(*topoFile)
		}
		return
	}
	openCampaignCheckpoint()
	ran := false
	run := func(cond bool, figureID string, f func()) {
		if cond || *all {
			benchFigure = figureID
			f()
			ran = true
		}
	}
	run(*fig == 3, "fig3", figure3)
	run(*fig == 4, "fig4", figure4)
	run(*fig == 5, "fig5", figure5)
	run(*fig == 6, "fig6", figure6)
	run(*fig == 7, "fig7", figure7)
	run(*fig == 8, "fig8", figure8)
	run(*table == 1, "table1", table1)
	run(*exp == "ladder", "ladder", ladder)
	run(*exp == "wan", "wan", wanRecord)
	run(*exp == "multiflow", "multiflow", multiflow)
	run(*exp == "compare", "compare", comparison)
	run(*exp == "anecdotes", "anecdotes", anecdotes)
	run(*exp == "mtu", "mtu", mtuSweep)
	// A pure gate run (kernel/pdes baselines) needs no figure selection.
	if !ran && *baseline == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *metricsF {
		printFleet("campaign fleet metrics", campaignMetrics.Fleet())
	}
	if *jsonOut {
		writeBench()
	}
	if *baseline != "" {
		runGate()
	}
	// Satellite of -skip-failures: contained failures must not masquerade as
	// a clean campaign. Everything above (figures, BENCH, metrics, baselines)
	// has been written; now surface the swallowed points with a distinct exit
	// code so CI and scripts can tell "partial campaign" (3) apart from a
	// regression-gate failure (1) or a usage error (2).
	if len(skippedFailures) > 0 {
		fmt.Printf("partial campaign: %d point(s) failed and were skipped:\n", len(skippedFailures))
		for _, s := range skippedFailures {
			fmt.Printf("  FAILED %s\n", s)
		}
		os.Exit(3)
	}
}

// campaignCheckpoint is the open -checkpoint journal, nil without the flag.
var campaignCheckpoint *core.Checkpoint

// skippedFailures collects the per-point failures that -skip-failures
// contained, for the end-of-run summary and exit code 3.
var skippedFailures []string

// checkpointIdentity is the invocation identity a journal is fingerprinted
// with: everything that changes which points a campaign simulates or what
// they measure. Workers are deliberately absent — results are byte-identical
// across worker counts, so a campaign may resume with a different count and
// still fold exact results.
type checkpointIdentity struct {
	Seed       int64
	Count      int
	Full       bool
	Fig, Table int
	Exp        string
	All        bool
}

// openCampaignCheckpoint opens (or, with -resume, restores) the -checkpoint
// journal before any sweep runs.
func openCampaignCheckpoint() {
	if *ckptPath == "" {
		if *resumeF {
			log.Fatalf("sweep: -resume requires -checkpoint FILE")
		}
		return
	}
	fp, err := core.CheckpointFingerprint(checkpointIdentity{
		Seed: *seed, Count: count(), Full: *full,
		Fig: *fig, Table: *table, Exp: *exp, All: *all,
	})
	if err != nil {
		log.Fatalf("checkpoint: %v", err)
	}
	cp, err := core.OpenCheckpoint(*ckptPath, fp, *resumeF)
	if err != nil {
		log.Fatalf("checkpoint: %v", err)
	}
	campaignCheckpoint = cp
	if *resumeF && cp.Len() > 0 {
		fmt.Printf("checkpoint: restored %d completed point(s) from %s\n", cp.Len(), *ckptPath)
	}
}

// runGate compares this run against each -baseline file and, with -gate,
// fails the process on any regression past the threshold.
func runGate() {
	failed := false
	for _, path := range strings.Split(*baseline, ",") {
		f, err := bench.Load(strings.TrimSpace(path))
		if err != nil {
			log.Fatalf("baseline: %v", err)
		}
		var rep *bench.Report
		switch f.Kind {
		case bench.KindSweep:
			rep = bench.CompareSweeps(f.Sweeps, currentSweepFile(), *gateThr)
		case bench.KindKernel:
			rep = bench.CompareKernel(f.Kernel)
		case bench.KindPDES:
			rep = bench.ComparePDES(f.PDES)
		}
		fmt.Printf("baseline %s (%s): %d measurements compared, %d regressions\n",
			f.Path, f.Kind, rep.Compared, len(rep.Regressions))
		for _, s := range rep.Skipped {
			fmt.Printf("  skipped    %s\n", s)
		}
		for _, r := range rep.Regressions {
			fmt.Printf("  REGRESSION %s\n", r)
		}
		if rep.Failed() {
			failed = true
		}
	}
	if !failed {
		fmt.Println("regression gate: all baselines hold")
		return
	}
	if *gateF {
		fmt.Println("regression gate: FAILED")
		os.Exit(1)
	}
	fmt.Println("regression gate: regressions found (advisory; pass -gate to enforce)")
}

// runChaos soaks the simulator in n randomized fault campaigns — scripted
// bursty loss, corruption, duplication, reordering, delay, and carrier
// flaps — with the runtime invariant auditor attached to every run. Any
// invariant violation or uncontained failure exits non-zero.
func runChaos(n int) {
	if n < 0 {
		log.Fatalf("sweep: -chaos %d must be positive", n)
	}
	start := time.Now()
	rep, err := core.RunChaos(core.ChaosConfig{
		Seed: *seed, Campaigns: n, Workers: workers(),
	})
	if err != nil {
		log.Fatalf("chaos: %v", err)
	}
	fmt.Printf("chaos: %d campaigns in %v: %d completed, %d budget stops, %d failures, %d invariant violations\n",
		rep.Campaigns, time.Since(start).Round(time.Millisecond),
		rep.Completed, rep.BudgetHits, len(rep.Failures), len(rep.Violations))
	for _, f := range rep.Failures {
		fmt.Printf("  FAILURE   %s\n", f)
	}
	for _, v := range rep.Violations {
		fmt.Printf("  VIOLATION %s\n", v)
	}
	if !rep.Ok() {
		os.Exit(1)
	}
	fmt.Println("all invariants held: pool balances exact, byte streams intact, no stalls")
}

// runTopology compiles a declarative topology file, drives every declared
// flow to completion, and prints per-flow goodput plus each switch's
// forwarding counters. With -telemetry DIR it also writes an instrument
// bundle (including the per-switch fabric section) into DIR.
func runTopology(path string) {
	spec, err := topo.Load(path)
	if err != nil {
		log.Fatalf("topology: %v", err)
	}
	eng := sim.NewEngine(*seed)
	net, err := topo.Compile(eng, spec, *seed)
	if err != nil {
		log.Fatalf("topology: %v", err)
	}
	var bundle *telemetry.Bundle
	if *telemDir != "" {
		bundle = net.AttachTelemetry(spec.Name, *seed, telemetry.Options{Enabled: true})
	}
	start := time.Now()
	results, err := net.RunFlows(10 * units.Minute)
	if err != nil {
		log.Fatalf("topology: %v", err)
	}
	wall := time.Since(start)

	printTopologyHeader(spec)
	printTopologyReport(results, net.FabricCounters(), wall)

	var fleet *telemetry.MetricsAccumulator
	if *metricsF {
		fleet = net.CollectMetrics(results)
		printFleet("fleet metrics", fleet.Fleet())
	}

	if bundle != nil {
		bundle.CaptureEngine(eng.Executed, eng.HighWater)
		net.CaptureFabric(bundle)
		// The metrics line is opt-in: without -metrics the bundle stays
		// byte-identical to pre-metrics exports.
		bundle.CaptureMetrics(fleet)
		if err := core.WriteBundle(*telemDir, bundle); err != nil {
			log.Fatalf("topology: %v", err)
		}
		fmt.Printf("telemetry bundle written to %s\n", *telemDir)
	}
}

// printTopologyHeader prints the one-line summary of a topology run.
func printTopologyHeader(spec *topo.Spec) {
	fmt.Printf("== topology %s: %d hosts, %d switches, %d links, %d flows ==\n",
		spec.Name, len(spec.Hosts), len(spec.Switches), len(spec.Links), len(spec.Flows))
}

// printTopologyReport prints per-flow goodput and every switch's forwarding
// counters — the same report for sequential and sharded runs, whose results
// are byte-equal by construction.
func printTopologyReport(flows []topo.FlowResult, fabric []telemetry.FabricCounters, wall time.Duration) {
	fmt.Printf("%-20s %-12s %-12s %-10s %s\n", "flow", "bytes", "elapsed", "Gb/s", "retrans")
	for _, r := range flows {
		fmt.Printf("%-20s %-12d %-12v %-10.3f %d\n",
			fmt.Sprintf("%s->%s", r.Src, r.Dst), r.Bytes, r.Elapsed,
			r.Throughput.Gbps(), r.Retransmits)
	}
	fmt.Printf("aggregate %.3f Gb/s over %d flows (wall %v)\n\n",
		topo.Aggregate(flows).Gbps(), len(flows), wall.Round(time.Millisecond))
	for _, fc := range fabric {
		fmt.Printf("switch %-12s forwarded %-8d dropped %-6d no-route %-4d ttl-drops %d\n",
			fc.Node, fc.Forwarded, fc.Dropped, fc.NoRoute, fc.TTLDrops)
		for _, ps := range fc.Ports {
			if ps.Forwarded == 0 && ps.Drops == 0 {
				continue
			}
			fmt.Printf("  port %-28s fwd %-8d drops %-6d max-queued %d B\n",
				ps.Link, ps.Forwarded, ps.Drops, ps.MaxQueued)
		}
	}
}

// replayBundle re-executes a crash bundle and reports reproduction. Exits
// non-zero when the recorded failure is still present.
func replayBundle(path string) {
	b, err := core.ReadCrashBundle(path)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	fmt.Printf("replaying %s bundle (seed %d)\n", b.Kind, b.Seed)
	fmt.Printf("recorded panic: %s\n", b.Panic)
	r := b.Replay(nil)
	switch {
	case r.Reproduced:
		fmt.Println("REPRODUCED: the replay panicked with the recorded value")
		os.Exit(1)
	case r.Panic != "":
		fmt.Printf("DIVERGED: the replay panicked differently: %s\n", r.Panic)
		os.Exit(1)
	case r.Err != nil:
		fmt.Printf("replay failed structurally: %v\n", r.Err)
		os.Exit(1)
	default:
		fmt.Println("clean: the recorded failure no longer reproduces")
	}
}

// benchFigure labels the figure/experiment currently running, so each
// sweep it performs lands in BENCH_sweep.json under the right id.
var benchFigure string

// benchSweeps accumulates the run's machine-readable sweep summaries
// (bench.Sweep — wall-clock fields live only there and in the human
// summary, never in the telemetry exports, which must be
// byte-deterministic). Recorded for -json and whenever a -baseline
// comparison will need them.
var benchSweeps []bench.Sweep

// benchRecording reports whether sweeps should record bench summaries.
func benchRecording() bool { return *jsonOut || *baseline != "" }

func recordBench(res *core.SweepResult, p core.Profile, wall time.Duration) {
	b := bench.Sweep{
		Figure:  benchFigure,
		Label:   res.Label,
		Profile: string(p),
		WallMS:  float64(wall.Microseconds()) / 1e3,
	}
	for _, pt := range res.Points {
		b.Points = append(b.Points, bench.SweepPoint{
			Payload: pt.Payload,
			Gbps:    pt.Throughput.Gbps(),
			WallMS:  float64(pt.Wall.Microseconds()) / 1e3,
		})
	}
	b.PeakPayload, _ = res.Peak()
	_, peak := res.Peak()
	b.PeakGbps = peak.Gbps()
	benchSweeps = append(benchSweeps, b)
}

// currentSweepFile assembles this run's sweeps plus the metadata that makes
// the file self-describing across changes: seed, resolution, and the
// topology file when one drove the run.
func currentSweepFile() *bench.SweepFile {
	return &bench.SweepFile{
		Meta: &bench.Meta{
			Seed:     *seed,
			Count:    count(),
			Full:     *full,
			Workers:  *nworkers,
			Topology: *topoFile,
		},
		Sweeps: benchSweeps,
	}
}

func writeBench() {
	data, err := json.MarshalIndent(currentSweepFile(), "", "  ")
	if err != nil {
		log.Fatalf("bench json: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile("BENCH_sweep.json", data, 0o644); err != nil {
		log.Fatalf("bench json: %v", err)
	}
	fmt.Printf("wrote BENCH_sweep.json (%d sweeps)\n", len(benchSweeps))
}

func payloads() []int {
	if !*full {
		return core.DefaultPayloads()
	}
	// Paper resolution: 128 B to 16 KB in fine steps.
	var out []int
	for p := 128; p <= 16384; p += 128 {
		out = append(out, p)
	}
	return out
}

func count() int {
	if *full {
		return 32768
	}
	return 3000
}

// campaignMetrics aggregates fleet metrics across every sweep of the
// invocation (-metrics only). Per-sweep accumulators merge here in sweep
// call order, which is fixed by the figure functions — deterministic.
var campaignMetrics = telemetry.NewMetricsAccumulator()

func sweep(p core.Profile, t core.Tuning) *core.SweepResult {
	cfg := core.SweepConfig{
		Seed: *seed, Profile: p, Tuning: t,
		Payloads: payloads(), Count: count(), Workers: workers(),
		Metrics:      *metricsF,
		Checkpoint:   campaignCheckpoint,
		EventBudget:  *limitEvF,
		SkipFailures: *skipF,
		Retries:      *retriesF,
		CrashDir:     *crashDir,
	}
	if *telemDir != "" {
		cfg.Telemetry = telemetry.Options{Enabled: true}
	}
	if *progress {
		cfg.Progress = progressLine(t.Label())
	}
	start := time.Now()
	res, err := cfg.Run()
	if err != nil {
		log.Fatalf("sweep: %v", err)
	}
	wall := time.Since(start)
	for _, pt := range res.Points {
		if pt.Err != nil {
			msg := fmt.Sprintf("%s payload %d: %v", res.Label, pt.Payload, pt.Err)
			if pt.CrashBundle != "" {
				msg += " (bundle " + pt.CrashBundle + ")"
			}
			skippedFailures = append(skippedFailures, msg)
		}
	}
	if *telemDir != "" {
		for _, pt := range res.Points {
			if pt.Telemetry == nil {
				continue
			}
			if err := core.WriteBundle(*telemDir, pt.Telemetry); err != nil {
				log.Fatalf("telemetry: %v", err)
			}
		}
	}
	if benchRecording() {
		recordBench(res, p, wall)
	}
	if *metricsF {
		if err := campaignMetrics.Merge(res.Metrics); err != nil {
			log.Fatalf("metrics: %v", err)
		}
	}
	return res
}

// progressLine returns a SweepConfig.Progress hook that repaints one stderr
// status line: points done, percent, elapsed, and an ETA extrapolated from
// the mean point cost so far.
func progressLine(label string) func(done, total int) {
	start := time.Now()
	return func(done, total int) {
		elapsed := time.Since(start)
		eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
		fmt.Fprintf(os.Stderr, "\r%-34s %d/%d points (%3.0f%%) elapsed %v ETA %v ",
			label, done, total, 100*float64(done)/float64(total),
			elapsed.Round(time.Millisecond), eta.Round(time.Millisecond))
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// printFleet renders a fleet-metrics result set as the -metrics report.
func printFleet(title string, f *telemetry.FleetMetrics) {
	if f == nil {
		return
	}
	fmt.Printf("== %s ==\n", title)
	fmt.Printf("flows %d, bytes %d, retransmits %d, fairness %.4f\n",
		f.Flows, f.Bytes, f.Retransmits, f.Fairness)
	fmt.Printf("FCT p50 %v  p90 %v  p99 %v  p99.9 %v  max %v\n",
		units.Time(f.FCTP50), units.Time(f.FCTP90), units.Time(f.FCTP99),
		units.Time(f.FCTP999), units.Time(f.FCTMax))
	for _, c := range f.Classes {
		fmt.Printf("class %-26s %6d flows  %14d bytes  %9.3f Gb/s aggregate\n",
			c.Class, c.Flows, c.Bytes, c.GoodputGbps)
	}
	if f.Fabric.Nodes > 0 {
		fmt.Printf("fabric %d nodes: forwarded %d, dropped %d (no-route %d, ttl %d, port %d), max queue %d B on %s\n",
			f.Fabric.Nodes, f.Fabric.Forwarded, f.Fabric.Dropped, f.Fabric.NoRoute,
			f.Fabric.TTLDrops, f.Fabric.PortDrops, f.Fabric.MaxQueued, f.Fabric.MaxQueuedLink)
	}
	fmt.Println()
}

// rowsString renders a sweep's result rows in a canonical form for the
// determinism cross-check: any divergence between a serial and a parallel
// run shows up as a byte difference.
func rowsString(res *core.SweepResult) string {
	var b strings.Builder
	for _, pt := range res.Points {
		fmt.Fprintf(&b, "%s,%d,%.9f,%.6f,%.6f\n",
			res.Label, pt.Payload, pt.Throughput.Gbps(), pt.SenderLoad, pt.ReceiverLoad)
	}
	return b.String()
}

// verifyDeterminism runs a sampled subset of the Figure 3/4 sweeps twice —
// once serial, once across the worker pool — and diffs the result rows.
// Identical rows prove that parallel scheduling cannot leak into simulation
// results (every point owns a private, seed-deterministic engine).
func verifyDeterminism() {
	samples := []struct {
		name string
		p    core.Profile
		t    core.Tuning
	}{
		{"fig3-stock-1500", core.PE2650, core.Stock(1500)},
		{"fig3-stock-9000", core.PE2650, core.Stock(9000)},
		{"fig4-optimized-9000", core.PE2650, core.Optimized(9000)},
	}
	grid := []int{1024, 4096, 8148, 16384}
	const verifyCount = 600
	failed := false
	for _, s := range samples {
		runOnce := func(w int) string {
			res, err := core.SweepConfig{
				Seed: *seed, Profile: s.p, Tuning: s.t,
				Payloads: grid, Count: verifyCount, Workers: w,
			}.Run()
			if err != nil {
				log.Fatalf("verify-determinism %s: %v", s.name, err)
			}
			return rowsString(res)
		}
		// Pin the pool to several workers even on a single-core machine so
		// the concurrent dispatch path is always the one under test.
		poolWorkers := runtime.GOMAXPROCS(0)
		if poolWorkers < 4 {
			poolWorkers = 4
		}
		serial := runOnce(1)
		fanned := runOnce(poolWorkers)
		if serial == fanned {
			fmt.Printf("ok   %-22s %d rows identical serial vs %d workers\n",
				s.name, len(grid), poolWorkers)
			continue
		}
		failed = true
		fmt.Printf("FAIL %s: serial and parallel rows differ\n", s.name)
		fmt.Printf("--- serial\n%s--- parallel\n%s", serial, fanned)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("determinism verified: parallel rows are byte-identical to serial rows")
}

func printSeries(res *core.SweepResult) {
	if *csv {
		fmt.Printf("# %s\nconfig,payload,gbps,snd_load,rcv_load\n", res.Label)
		for _, pt := range res.Points {
			fmt.Printf("%s,%d,%.4f,%.3f,%.3f\n",
				res.Label, pt.Payload, pt.Throughput.Gbps(), pt.SenderLoad, pt.ReceiverLoad)
		}
		fmt.Println()
		return
	}
	fmt.Printf("# %s\n", res.Label)
	fmt.Printf("%-10s %-12s %-10s %-10s\n", "payload", "Gb/s", "snd-load", "rcv-load")
	for _, pt := range res.Points {
		fmt.Printf("%-10d %-12.3f %-10.2f %-10.2f\n",
			pt.Payload, pt.Throughput.Gbps(), pt.SenderLoad, pt.ReceiverLoad)
	}
	_, peak := res.Peak()
	fmt.Printf("peak %.3f Gb/s, mean %.3f Gb/s\n\n", peak.Gbps(), res.Mean().Gbps())
}

func figure3() {
	fmt.Println("== Figure 3: Throughput of Stock TCP: 1500- vs 9000-byte MTU ==")
	fmt.Println("paper: peaks 1.8 Gb/s (1500) and 2.7 Gb/s (9000)")
	printSeries(sweep(core.PE2650, core.Stock(1500)))
	printSeries(sweep(core.PE2650, core.Stock(9000)))
}

func figure4() {
	fmt.Println("== Figure 4: Oversized windows + PCI-X burst + UP kernel ==")
	fmt.Println("paper: peaks 2.47 Gb/s (1500) and 3.9 Gb/s (9000)")
	printSeries(sweep(core.PE2650, core.Optimized(1500)))
	printSeries(sweep(core.PE2650, core.Optimized(9000)))
}

func figure5() {
	fmt.Println("== Figure 5: Cumulative optimizations with non-standard MTUs ==")
	fmt.Println("paper: peaks 4.11 Gb/s (8160) and 4.09 Gb/s (16000)")
	fmt.Printf("reference lines: GbE 1.0, Myrinet 2.0, QsNet 3.2, 10GbE(PCI-X) %.1f Gb/s\n\n",
		compare.TenGbETheoretical.Gbps())
	printSeries(sweep(core.PE2650, core.Optimized(8160)))
	printSeries(sweep(core.PE2650, core.Optimized(16000)))
}

func latency(t core.Tuning, via bool, label string) {
	pts, err := core.LatencyConfig{
		Seed: *seed, Profile: core.PE2650, Tuning: t,
		Payloads: core.DefaultLatencyPayloads(), Reps: 20, ViaSwitch: via,
	}.Run()
	if err != nil {
		log.Fatalf("latency: %v", err)
	}
	if *csv {
		fmt.Printf("# %s\npayload,one_way_us\n", label)
		for _, pt := range pts {
			fmt.Printf("%d,%.3f\n", pt.Payload, pt.OneWay.Micros())
		}
		fmt.Println()
		return
	}
	fmt.Printf("# %s\n%-10s %s\n", label, "payload", "one-way")
	for _, pt := range pts {
		fmt.Printf("%-10d %v\n", pt.Payload, pt.OneWay)
	}
	fmt.Println()
}

func figure6() {
	fmt.Println("== Figure 6: End-to-end latency (5 us interrupt coalescing) ==")
	fmt.Println("paper: 19 us back-to-back / 25 us via switch at 1 B; 23/28 us at 1 KB")
	latency(core.Optimized(9000), false, "back-to-back")
	latency(core.Optimized(9000), true, "through FastIron 1500")
}

func figure7() {
	fmt.Println("== Figure 7: End-to-end latency without interrupt coalescing ==")
	fmt.Println("paper: 14 us back-to-back at 1 B")
	latency(core.Optimized(9000).WithoutCoalescing(), false, "back-to-back, coalescing off")
}

func figure8() {
	fmt.Println("== Figure 8: Ideal vs MSS-allowed window ==")
	fmt.Printf("%-55s %-10s %-8s %-10s %s\n", "case", "window", "MSS", "usable", "lost")
	for _, r := range core.WindowAudit() {
		fmt.Printf("%-55s %-10d %-8d %-10d %.0f%%\n",
			r.Description, r.Ideal, r.MSS, r.Usable, r.LossPct)
	}
	fmt.Println()
}

func table1() {
	fmt.Println("== Table 1: Time to recover from a single packet loss ==")
	fmt.Printf("%-20s %-12s %-8s %-8s %s\n", "path", "bandwidth", "RTT", "MSS", "recovery")
	for _, r := range core.Table1() {
		fmt.Printf("%-20s %-12v %-8v %-8d %v\n", r.Path, r.BW, r.RTT, r.MSS, r.Recovery)
	}
	fmt.Println()
}

func ladder() {
	fmt.Println("== §3.3 optimization ladder (9000-byte MTU) ==")
	fmt.Println("paper peaks: stock 2.7 -> +MMRBC 3.6 -> +UP ~3.6 -> +256K 3.9 Gb/s")
	steps, err := core.RunLadder(*seed, core.PE2650, 9000, payloads(), count(), workers())
	if err != nil {
		log.Fatalf("ladder: %v", err)
	}
	fmt.Printf("%-18s %-34s %-10s %s\n", "rung", "config", "peak", "mean")
	for _, s := range steps {
		_, peak := s.Result.Peak()
		fmt.Printf("%-18s %-34s %-10.3f %.3f\n",
			s.Name, s.Tuning.Label(), peak.Gbps(), s.Result.Mean().Gbps())
	}
	fmt.Println()
}

func wanRecord() {
	fmt.Println("== §4: Sunnyvale -> Geneva record run ==")
	fmt.Println("paper: 2.38 Gb/s sustained, ~99% payload efficiency, 1 TB < 1 hour")
	res, err := core.RunWAN(core.WANConfig{Seed: *seed, Duration: 15 * units.Second})
	if err != nil {
		log.Fatalf("wan: %v", err)
	}
	fmt.Printf("sustained:   %v (ceiling %v, efficiency %.1f%%)\n",
		res.Throughput, res.PayloadCeiling, res.Efficiency*100)
	fmt.Printf("RTT:         %v   drops: %d   retransmits: %d\n",
		res.RTT, res.BottleneckDrops, res.Retransmits)
	fmt.Printf("terabyte in: %v\n\n", res.TimeToTerabyte)

	fmt.Println("-- counterfactual: 3x-BDP socket buffers --")
	over, err := core.RunWAN(core.WANConfig{
		Seed: *seed, Duration: 15 * units.Second, SockBuf: 3 * 54 * 1024 * 1024})
	if err != nil {
		log.Fatalf("wan: %v", err)
	}
	fmt.Printf("sustained:   %v   drops: %d   retransmits: %d   timeouts: %d\n\n",
		over.Throughput, over.BottleneckDrops, over.Retransmits, over.Timeouts)
}

func multiflow() {
	fmt.Println("== §3.5.2: multi-flow aggregation through the FastIron 1500 ==")
	spec := func(label string, reverse bool, nics int) core.MultiFlowSpec {
		return core.MultiFlowSpec{
			Label: label, Seed: *seed, Profile: core.PE2650,
			Tuning: core.Optimized(9000), Senders: 6, Kind: core.GbESenders,
			Reverse: reverse, SinkNICs: nics, Duration: 200 * units.Millisecond,
		}
	}
	results, err := core.RunMultiFlows([]core.MultiFlowSpec{
		spec("rx", false, 1), spec("tx", true, 1), spec("two-nics", false, 2),
	}, workers())
	if err != nil {
		log.Fatalf("multiflow: %v", err)
	}
	rx, tx, two := results[0], results[1], results[2]
	fmt.Printf("6 GbE senders -> one 10GbE PE2650:   %v\n", rx.Aggregate)
	fmt.Printf("one 10GbE PE2650 -> 6 GbE receivers: %v  (tx/rx %.2f; paper: equal)\n",
		tx.Aggregate, tx.Aggregate.Gbps()/rx.Aggregate.Gbps())
	fmt.Printf("same flows over two adapters:        %v  (ratio %.2f; paper: identical)\n\n",
		two.Aggregate, two.Aggregate.Gbps()/rx.Aggregate.Gbps())
}

func comparison() {
	fmt.Println("== §3.5.3: interconnect comparison ==")
	res := sweep(core.PE2650, core.Optimized(8160))
	_, peak := res.Peak()
	pts, err := core.LatencyConfig{Seed: *seed, Profile: core.PE2650,
		Tuning: core.Optimized(9000), Payloads: []int{1}, Reps: 20}.Run()
	if err != nil {
		log.Fatalf("compare: %v", err)
	}
	lat := pts[0].OneWay
	fmt.Printf("%-10s %-8s %-12s %-10s %s\n", "network", "API", "throughput", "latency", "source")
	fmt.Printf("%-10s %-8s %-12v %-10v %s\n", "10GbE", "TCP/IP", peak, lat, "this reproduction")
	for _, r := range compare.Published() {
		fmt.Printf("%-10s %-8s %-12v %-10v %s\n", r.Name, r.API, r.Throughput, r.Latency, r.Source)
	}
	fmt.Println()
	for _, c := range compare.EvaluateClaims(peak, lat) {
		mark := "HOLDS"
		if !c.Holds {
			mark = "FAILS"
		}
		fmt.Printf("[%s] %s (%s)\n", mark, c.Description, c.Detail)
	}
	fmt.Println()
}

func mtuSweep() {
	fmt.Println("== MTU sweep (extension): the allocator-block sawtooth ==")
	fmt.Println("throughput climbs with MTU, then dips past each power-of-2 block boundary")
	mtus := []int{1500, 3000, 4000, 4200, 6000, 8000, 8160, 8400, 9000, 12000, 16000}
	pts, err := core.MTUSweep(*seed, core.PE2650, mtus, 16384, count(), workers())
	if err != nil {
		log.Fatalf("mtu: %v", err)
	}
	fmt.Printf("%-8s %-10s %-10s %s\n", "MTU", "block", "peak", "mean")
	for _, p := range pts {
		fmt.Printf("%-8d %-10d %-10.3f %.3f\n", p.MTU, p.BlockSize, p.Peak.Gbps(), p.Mean.Gbps())
	}
	fmt.Println()
}

func anecdotes() {
	fmt.Println("== §3.4 anecdotal results ==")
	nots := sweep(core.IntelE7505, core.Stock(9000).WithoutTimestamps())
	_, pn := nots.Peak()
	ts := sweep(core.IntelE7505, core.Stock(9000))
	_, pt := ts.Peak()
	fmt.Printf("E7505 out-of-box (no timestamps): %v  (paper: 4.64 Gb/s)\n", pn)
	fmt.Printf("E7505 with timestamps:            %v  (paper: ~10%% lower; got %.1f%%)\n",
		pt, (1-pt.Gbps()/pn.Gbps())*100)
	m, err := core.NewMultiFlow(*seed, core.ItaniumII,
		core.Stock(9000).WithMMRBC(4096).WithSockBuf(256*1024), 10, core.GbESenders, false)
	if err != nil {
		log.Fatalf("anecdotes: %v", err)
	}
	res := core.RunMultiFlow(m, 200*units.Millisecond)
	fmt.Printf("Itanium-II aggregated receive:    %v  (paper: 7.2 Gb/s)\n", res.Aggregate)
	// STREAM context for the §3.5.2 memory-bandwidth discussion.
	pair, err := core.BackToBack(*seed, core.PE4600, core.Optimized(9000))
	if err != nil {
		log.Fatalf("anecdotes: %v", err)
	}
	fmt.Printf("PE4600 STREAM:                    %v  (paper: 12.8 Gb/s, yet no TCP gain)\n\n",
		tools.Stream(pair.SrcHost))
}

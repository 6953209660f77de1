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
//	sweep -exp ladder     # §3.3 optimization ladder summary (9000 MTU)
//	sweep -exp ladder1500 # §3.3 optimization ladder at 1500 MTU
//	sweep -exp wan        # §4 record run
//	sweep -exp multiflow  # §3.5.2 aggregation experiments and pktgen
//	sweep -exp compare    # §3.5.3 interconnect comparison
//	sweep -exp anecdotes  # §3.4 E7505 / Itanium results, §3.5.2 PE4600
//	sweep -exp mtu        # extension: MTU sweep (allocator-block sawtooth)
//	sweep -exp tools      # §3.2 Iperf vs NTTCP
//	sweep -exp ablations  # extensions: NAPI, TSO, MMRBC, coalescing, SACK...
//	sweep -all            # everything
//	sweep -full ...       # paper-resolution payload grid (slower)
//	sweep -json ...       # also write BENCH_sweep.json (figure id, points, peak, wall)
//	sweep -telemetry DIR  # export per-point instrument bundles (JSONL + CSV) into DIR
//	sweep -chaos 500      # randomized fault-injection soak with the invariant auditor
//	sweep -replay F.json  # replay a crash bundle and report reproduction
//	sweep -topology F.json # compile a declarative topology file and run its flows
//
// After each experiment's data rows, sweep prints the paper's claims that
// the experiment measures (internal/paper): the paper's value, the
// measured one, the accepted band and the verdict.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"tengig/internal/core"
	"tengig/internal/host"
	"tengig/internal/paper"
	"tengig/internal/prof"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/topo"
	"tengig/internal/units"
)

var (
	fig      = flag.Int("fig", 0, "figure number to regenerate (3-8)")
	table    = flag.Int("table", 0, "table number to regenerate (1)")
	exp      = flag.String("exp", "", "named experiment: ladder|ladder1500|wan|multiflow|compare|anecdotes|mtu|tools|ablations")
	all      = flag.Bool("all", false, "run everything")
	full     = flag.Bool("full", false, "paper-resolution sweep (32768 writes, fine payload grid)")
	csv      = flag.Bool("csv", false, "emit CSV rows instead of aligned tables (for plotting)")
	seed     = flag.Int64("seed", 1, "simulation seed")
	parallel = flag.Bool("parallel", false, "fan independent simulation points across one worker per CPU (identical rows, less wall-clock)")
	nworkers = flag.Int("workers", 0, "worker-pool size for -parallel (0 = GOMAXPROCS)")
	jsonOut  = flag.Bool("json", false, "write BENCH_sweep.json: per-sweep figure id, points, peak, wall time")
	telemDir = flag.String("telemetry", "", "directory for per-run telemetry bundles (JSONL + CSV); enables instrument sampling on every sweep point")
	chaos    = flag.Int("chaos", 0, "run N randomized fault-injection campaigns with the invariant auditor attached; non-zero exit on any violation")
	replay   = flag.String("replay", "", "replay a crash-bundle JSON written by a contained sweep/chaos failure and report whether it reproduces")
	topoFile = flag.String("topology", "", "compile a declarative topology file (JSON), run its flows, and report per-flow goodput and switch counters")
	shardsF  = flag.Int("shards", 0, "run -topology under the conservative parallel-DES runner with N sharded engines (0 = sequential; output is byte-identical either way)")
	pdesOut  = flag.String("pdes-bench", "", "measure the parallel runner's wall-clock scaling (shards 1/2/4) over the benchmark topology, write BENCH_pdes.json-shaped output to this path, and exit 1 if the speedup at 4 shards misses its floor (hosts with >= 4 CPUs)")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProf  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	metricsF = flag.Bool("metrics", false, "aggregate fleet-level metrics (FCT percentiles, Jain's fairness, per-class goodput) across every run and print the report")
	progress = flag.Bool("progress", false, "print a live progress line (points completed / ETA) to stderr while sweeps run")
	ckptPath = flag.String("checkpoint", "", "journal every completed sweep point into this JSONL file; a killed campaign restarts from the journal with -resume")
	resumeF  = flag.Bool("resume", false, "resume the -checkpoint journal: restore completed points instead of re-simulating them (refused if the journal was written by a different campaign configuration)")
	limitEvF = flag.Uint64("limit-events", 0, "abort any sweep point that exceeds this simulated-event budget (0 = unlimited); used to rehearse mid-campaign kills")
	skipF    = flag.Bool("skip-failures", false, "contain per-point failures instead of aborting the run; failed points are reported at exit with code 3")
	crashDir = flag.String("crashdir", "", "with -skip-failures, write a replayable crash-bundle JSON here for every contained panic")
)

// workers returns the experiment-level worker count from the flags:
// serial unless -parallel is set, then -workers or one per CPU.
func workers() int {
	if !*parallel {
		return 1
	}
	if *nworkers > 0 {
		return *nworkers
	}
	return runtime.GOMAXPROCS(0)
}

func main() { os.Exit(run()) }

// exitCode is an error that carries only an exit status: the command has
// already said what went wrong.
type exitCode int

func (c exitCode) Error() string { return fmt.Sprintf("exit status %d", int(c)) }

// run is the command: it returns the exit code instead of exiting, so the
// profiles it started are written on every path. An error is printed and
// exits 1 unless it is an exitCode.
func run() int {
	log.SetFlags(0)
	flag.Parse()
	stopProfiles := prof.Start(*cpuProf, *memProf)
	defer stopProfiles()
	err := runMode()
	var code exitCode
	switch {
	case err == nil:
		return 0
	case errors.As(err, &code):
		return int(code)
	}
	log.Print(err)
	return 1
}

// runMode runs the mode the flags select.
func runMode() error {
	switch {
	case *replay != "":
		return replayBundle(*replay)
	case *chaos != 0:
		return runChaos(*chaos)
	case *pdesOut != "":
		return writePDESBench(*pdesOut)
	case *topoFile != "" && *shardsF < 0:
		return fmt.Errorf("sweep: -shards %d must not be negative", *shardsF)
	case *topoFile != "" && *shardsF > 0:
		return runTopologySharded(*topoFile, *shardsF)
	case *topoFile != "":
		return runTopology(*topoFile)
	}
	return runExperiments()
}

// runExperiments runs the experiments -fig, -table, -exp or -all select,
// each followed by its claim rows.
func runExperiments() error {
	if err := openCampaignCheckpoint(); err != nil {
		return err
	}
	ran := false
	measured := paper.Measured{}
	for _, e := range paper.Experiments {
		if !*all && e.ID != *exp && e.ID != fmt.Sprintf("fig%d", *fig) && e.ID != fmt.Sprintf("table%d", *table) {
			continue
		}
		benchFigure = e.ID
		if err := e.Run(settings(), measured); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		paper.PrintClaims(os.Stdout, e.ID, measured)
		ran = true
	}
	if !ran {
		flag.Usage()
		return exitCode(2)
	}
	if *metricsF {
		printFleet("campaign fleet metrics", campaignMetrics.Fleet())
	}
	if *jsonOut {
		if err := writeBench(); err != nil {
			return err
		}
	}
	// Satellite of -skip-failures: contained failures must not masquerade as
	// a clean campaign. Everything above (figures, BENCH, metrics) has been
	// written; now surface the swallowed points with a distinct exit code so
	// CI and scripts can tell "partial campaign" (3) apart from a failed run
	// (1) or a usage error (2).
	if len(skippedFailures) > 0 {
		fmt.Printf("partial campaign: %d point(s) failed and were skipped:\n", len(skippedFailures))
		for _, s := range skippedFailures {
			fmt.Printf("  FAILED %s\n", s)
		}
		return exitCode(3)
	}
	return nil
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
func openCampaignCheckpoint() error {
	if *ckptPath == "" {
		if *resumeF {
			return errors.New("sweep: -resume requires -checkpoint FILE")
		}
		return nil
	}
	fp, err := core.CheckpointFingerprint(checkpointIdentity{
		Seed: *seed, Count: settings().Count(), Full: *full,
		Fig: *fig, Table: *table, Exp: *exp, All: *all,
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	cp, err := core.OpenCheckpoint(*ckptPath, fp, *resumeF)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	campaignCheckpoint = cp
	if *resumeF && cp.Len() > 0 {
		fmt.Printf("checkpoint: restored %d completed point(s) from %s\n", cp.Len(), *ckptPath)
	}
	return nil
}

// runChaos soaks the simulator in n randomized fault campaigns — scripted
// bursty loss, corruption, duplication, reordering, delay, and carrier
// flaps — with the runtime invariant auditor attached to every run. Any
// invariant violation or uncontained failure exits non-zero.
func runChaos(n int) error {
	if n < 0 {
		return fmt.Errorf("sweep: -chaos %d must be positive", n)
	}
	start := time.Now()
	rep, err := core.RunChaos(core.ChaosConfig{
		Seed: *seed, Campaigns: n, Workers: workers(),
	})
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
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
		return exitCode(1)
	}
	fmt.Println("all invariants held: pool balances exact, byte streams intact, no stalls")
	return nil
}

// runTopology compiles a declarative topology file, drives every declared
// flow to completion, and prints per-flow goodput plus each switch's
// forwarding counters. With -telemetry DIR it also writes an instrument
// bundle (including the per-switch fabric section) into DIR.
func runTopology(path string) error {
	spec, err := topo.Load(path)
	if err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	eng := sim.NewEngine(*seed)
	net, err := topo.Compile(eng, spec, *seed)
	if err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	var bundle *telemetry.Bundle
	if *telemDir != "" {
		bundle = net.AttachTelemetry(spec.Name, *seed, telemetry.Options{Enabled: true})
	}
	start := time.Now()
	results, err := net.RunFlows(10 * units.Minute)
	if err != nil {
		return fmt.Errorf("topology: %w", err)
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
			return fmt.Errorf("topology: %w", err)
		}
		fmt.Printf("telemetry bundle written to %s\n", *telemDir)
	}
	return nil
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
func replayBundle(path string) error {
	b, err := core.ReadCrashBundle(path)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	fmt.Printf("replaying %s bundle (seed %d)\n", b.Kind, b.Seed)
	fmt.Printf("recorded panic: %s\n", b.Panic)
	r := b.Replay(nil)
	switch {
	case r.Reproduced:
		fmt.Println("REPRODUCED: the replay panicked with the recorded value")
	case r.Panic != "":
		fmt.Printf("DIVERGED: the replay panicked differently: %s\n", r.Panic)
	case r.Err != nil:
		fmt.Printf("replay failed structurally: %v\n", r.Err)
	default:
		fmt.Println("clean: the recorded failure no longer reproduces")
		return nil
	}
	return exitCode(1)
}

// sweepFile is BENCH_sweep.json: every figure sweep of a run, with the
// meta that makes the file self-describing across changes.
type sweepFile struct {
	Meta   *sweepMeta   `json:"meta,omitempty"`
	Sweeps []benchSweep `json:"sweeps"`
}

// sweepMeta records what produced a BENCH_sweep.json: the seed, the
// resolution and the worker count the run used. Files written while the
// scheduler was selectable also carry a "scheduler" key; decoding ignores
// it.
type sweepMeta struct {
	Seed    int64 `json:"seed,omitempty"`
	Count   int   `json:"count,omitempty"`
	Full    bool  `json:"full,omitempty"`
	Workers int   `json:"workers,omitempty"`
}

// benchSweep is one figure sweep in BENCH_sweep.json. Its wall-clock
// fields live only here and in the human summary, never in the telemetry
// exports, which must be byte-deterministic.
type benchSweep struct {
	Figure string `json:"figure"`
	Label  string `json:"label"`
	// Profile names the host platform the sweep ran on.
	Profile     string       `json:"profile,omitempty"`
	Points      []benchPoint `json:"points"`
	PeakPayload int          `json:"peak_payload"`
	PeakGbps    float64      `json:"peak_gbps"`
	WallMS      float64      `json:"wall_ms"`
}

// benchPoint is one payload's measurement in a benchSweep.
type benchPoint struct {
	Payload int     `json:"payload"`
	Gbps    float64 `json:"gbps"`
	WallMS  float64 `json:"wall_ms"`
}

// benchFigure labels the figure/experiment currently running, so each
// sweep it performs lands in BENCH_sweep.json under the right id.
var benchFigure string

// benchSweeps accumulates the run's figure sweeps for -json.
var benchSweeps []benchSweep

func recordBench(res *core.SweepResult, p host.Profile, wall time.Duration) {
	b := benchSweep{
		Figure:  benchFigure,
		Label:   res.Label,
		Profile: string(p),
		WallMS:  float64(wall.Microseconds()) / 1e3,
	}
	for _, pt := range res.Points {
		b.Points = append(b.Points, benchPoint{
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

// currentSweepFile assembles this run's sweeps and meta.
func currentSweepFile() *sweepFile {
	return &sweepFile{
		Meta: &sweepMeta{
			Seed:    *seed,
			Count:   settings().Count(),
			Full:    *full,
			Workers: workers(),
		},
		Sweeps: benchSweeps,
	}
}

// writeBench writes BENCH_sweep.json. A selection that ran no figure sweep
// (-fig 6-8, -table 1) has nothing to record, so it leaves the file as it
// is and fails rather than write an empty one over it.
func writeBench() error {
	if len(benchSweeps) == 0 {
		return errors.New("bench json: the selected experiments ran no figure sweep; BENCH_sweep.json left untouched")
	}
	data, err := json.MarshalIndent(currentSweepFile(), "", "  ")
	if err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile("BENCH_sweep.json", data, 0o644); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	fmt.Printf("wrote BENCH_sweep.json (%d sweeps)\n", len(benchSweeps))
	return nil
}

// settings are the experiment settings the flags select.
func settings() paper.Settings {
	return paper.Settings{
		Seed: *seed, Full: *full, Workers: workers(), CSV: *csv,
		Out: os.Stdout, Sweep: sweep,
	}
}

// campaignMetrics aggregates fleet metrics across every sweep of the
// invocation (-metrics only). Per-sweep accumulators merge here in sweep
// call order, which is fixed by the figure functions — deterministic.
var campaignMetrics = telemetry.NewMetricsAccumulator()

// sweep runs one figure sweep with the campaign's options: checkpoint,
// event budget, contained failures, telemetry, fleet metrics, progress and
// BENCH recording.
func sweep(cfg core.SweepConfig) (*core.SweepResult, error) {
	cfg.Metrics = *metricsF
	cfg.Checkpoint = campaignCheckpoint
	cfg.EventBudget = *limitEvF
	cfg.SkipFailures = *skipF
	cfg.CrashDir = *crashDir
	if *telemDir != "" {
		cfg.Telemetry = telemetry.Options{Enabled: true}
	}
	if *progress {
		cfg.Progress = progressLine(cfg.Tuning.Label())
	}
	start := time.Now()
	res, err := cfg.Run()
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
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
				return nil, fmt.Errorf("telemetry: %w", err)
			}
		}
	}
	if *jsonOut {
		recordBench(res, cfg.Profile, wall)
	}
	if *metricsF {
		if err := campaignMetrics.Merge(res.Metrics); err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
	}
	return res, nil
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

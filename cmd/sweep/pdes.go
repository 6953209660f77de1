package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"tengig/internal/core"
	"tengig/internal/pdes"
	"tengig/internal/telemetry"
	"tengig/internal/topo"
)

// defaultPDESTopology drives -pdes-bench when no -topology is given: the
// 16-switch metro-area torus with 32 concurrent flows and millisecond-scale
// propagation — long lookahead, wide windows, compute-bound shards.
const defaultPDESTopology = "examples/topologies/torus-grid.json"

// pdesShortTopology is the second -pdes-bench scenario: a 32-host LAN star
// with sub-microsecond propagation, so the barrier windows are only hundreds
// of simulated nanoseconds wide and synchronization cost dominates.
const pdesShortTopology = "examples/topologies/lan-star.json"

// pdesBenchShards are the shard counts a -pdes-bench run measures, in
// ascending order.
var pdesBenchShards = []int{1, 2, 4}

// The speedup floors -pdes-bench checks at the largest shard count, on
// hosts with at least that many CPUs. On the long-lookahead topology the
// parallel runner must at least halve the wall clock. On the short-lookahead
// LAN star, whose windows are only hundreds of simulated nanoseconds wide,
// the barrier is the run, and the runner must still beat the 1-shard wall
// clock, not merely tread water.
const (
	pdesSpeedupFloor = 2.0
	pdesShortFloor   = 1.0
)

// pdesEntry is one shard count's parallel-DES measurement.
type pdesEntry struct {
	Shards int     `json:"shards"`
	WallMS float64 `json:"wall_ms"`
	// Speedup is wall(1 shard) / wall(this entry): the dimensionless number
	// the floors check, comparable across machines.
	Speedup float64 `json:"speedup"`
}

// pdesScenario is one topology's scaling series inside BENCH_pdes.json.
type pdesScenario struct {
	Topology string      `json:"topology"`
	Entries  []pdesEntry `json:"entries"`
}

// pdesFile is BENCH_pdes.json: wall-clock scaling of the sharded simulation
// runner. PDES holds the primary (long-lookahead) topology's series; Short,
// when present, holds a short-lookahead LAN topology whose sub-microsecond
// windows stress the barrier itself.
type pdesFile struct {
	Meta  *pdesMeta     `json:"meta,omitempty"`
	PDES  []pdesEntry   `json:"pdes"`
	Short *pdesScenario `json:"short,omitempty"`
}

// pdesMeta describes the run and host behind a BENCH_pdes.json: wall-clock
// speedup means nothing without the CPU count. Files written while the
// scheduler, replica shape and barrier were selectable also carry
// "scheduler", "replica" and "barrier" keys; decoding ignores them.
type pdesMeta struct {
	Seed     int64  `json:"seed,omitempty"`
	Topology string `json:"topology,omitempty"`
	CPUs     int    `json:"cpus,omitempty"`
	// Reps is how many runs each wall-clock median covers.
	Reps int `json:"reps,omitempty"`
	// Note carries free-form measurement caveats.
	Note string `json:"note,omitempty"`
}

// measurePDES runs the topology's flows under the sharded runner and
// returns the median wall-clock milliseconds over reps runs (first warm-up
// run discarded — it pays compile and allocator warm-up).
func measurePDES(topoPath string, seed int64, shards, reps int) (float64, error) {
	spec, err := topo.Load(topoPath)
	if err != nil {
		return 0, err
	}
	r, err := pdes.New(spec, pdes.Options{Shards: shards, Seed: seed})
	if err != nil {
		return 0, err
	}
	if _, err := r.Run(); err != nil {
		return 0, err
	}
	walls := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := r.Run(); err != nil {
			return 0, err
		}
		walls = append(walls, float64(time.Since(start).Nanoseconds())/1e6)
	}
	sort.Float64s(walls)
	return walls[len(walls)/2], nil
}

// runTopologySharded is runTopology's parallel twin: it drives the topology
// through the conservative parallel-DES runner and prints the identical flow
// and fabric report (the outputs are byte-equal by construction), plus the
// partition and synchronization summary.
func runTopologySharded(path string, shards int) error {
	spec, err := topo.Load(path)
	if err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	opts := pdes.Options{Shards: shards, Seed: *seed, Metrics: *metricsF}
	if *telemDir != "" {
		opts.Telemetry = &telemetry.Options{Enabled: true}
	}
	r, err := pdes.New(spec, opts)
	if err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	start := time.Now()
	res, err := r.Run()
	if err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	wall := time.Since(start)

	printTopologyHeader(spec)
	fmt.Printf("parallel: %d shards, %d cut links, lookahead %v, %v subsets\n",
		res.Plan.Shards, len(res.Plan.CutLinks), res.Plan.Lookahead, r.Replica())
	if fb := r.SparseFallback(); fb != nil {
		fmt.Printf("parallel: every shard compiles the whole topology: %v\n", fb)
	}
	var meanSync time.Duration
	if res.Windows > 0 {
		meanSync = res.SyncWall / time.Duration(uint64(res.Plan.Shards)*res.Windows)
	}
	fmt.Printf("sync: %d windows, mean window sync %v per shard (%v total blocked across shards)\n",
		res.Windows, meanSync, res.SyncWall.Round(time.Microsecond))
	printTopologyReport(res.Flows, res.Fabric, wall)

	if res.Metrics != nil {
		printFleet("fleet metrics", res.Metrics.Fleet())
	}
	if res.Bundle != nil {
		if err := core.WriteBundle(*telemDir, res.Bundle); err != nil {
			return fmt.Errorf("topology: %w", err)
		}
		fmt.Printf("telemetry bundle written to %s\n", *telemDir)
	}
	return nil
}

// measureSeries runs one topology's scaling series and prints each line.
func measureSeries(topoPath string, reps int) ([]pdesEntry, error) {
	wall1 := 0.0
	var out []pdesEntry
	for _, n := range pdesBenchShards {
		wall, err := measurePDES(topoPath, *seed, n, reps)
		if err != nil {
			return nil, fmt.Errorf("pdes bench: %s shards=%d: %w", topoPath, n, err)
		}
		if n == 1 {
			wall1 = wall
		}
		e := pdesEntry{Shards: n, WallMS: wall}
		if wall > 0 && wall1 > 0 {
			e.Speedup = wall1 / wall
		}
		out = append(out, e)
		fmt.Printf("  shards=%d  wall %8.2f ms  speedup %.2fx\n", n, e.WallMS, e.Speedup)
	}
	return out, nil
}

// writePDESBench measures the sharded runner's wall-clock scaling over the
// long-lookahead benchmark topology and the short-lookahead LAN scenario,
// writes BENCH_pdes.json-shaped output to path, and then checks each
// series' speedup at the largest shard count against its floor, exiting 1
// on a miss. The floors need parallel hardware: on a host with fewer CPUs
// than shards it prints why it did not check them.
func writePDESBench(path string) error {
	topoPath := *topoFile
	if topoPath == "" {
		topoPath = defaultPDESTopology
	}
	const reps = 5
	cpus := runtime.NumCPU()
	maxShards := pdesBenchShards[len(pdesBenchShards)-1]
	pf := &pdesFile{
		Meta: &pdesMeta{
			Seed:     *seed,
			Topology: topoPath,
			Reps:     reps,
			CPUs:     cpus,
		},
	}
	if cpus < maxShards {
		pf.Meta.Note = fmt.Sprintf(
			"measured on a %d-CPU host: wall ratios record synchronization overhead, not parallel speedup; the speedup floors gate only on hosts with >= %d CPUs",
			cpus, maxShards)
	}
	fmt.Printf("pdes bench: %s, %d reps per shard count, %d CPUs\n", topoPath, reps, cpus)
	var err error
	if pf.PDES, err = measureSeries(topoPath, reps); err != nil {
		return err
	}
	if topoPath != pdesShortTopology {
		fmt.Printf("pdes bench (short lookahead): %s\n", pdesShortTopology)
		pf.Short = &pdesScenario{Topology: pdesShortTopology}
		if pf.Short.Entries, err = measureSeries(pdesShortTopology, reps); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return fmt.Errorf("pdes bench: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("pdes bench: %w", err)
	}
	fmt.Printf("wrote %s (%d shard counts)\n", path, len(pf.PDES))
	if cpus < maxShards {
		fmt.Printf("pdes floors not checked: %d CPUs for %d shards (speedup needs parallel hardware)\n", cpus, maxShards)
		return nil
	}
	ok := checkPDESFloor(topoPath, pf.PDES, pdesSpeedupFloor)
	if pf.Short != nil {
		ok = checkPDESFloor(pf.Short.Topology, pf.Short.Entries, pdesShortFloor) && ok
	}
	if !ok {
		return exitCode(1)
	}
	return nil
}

// checkPDESFloor prints the speedup of a series' largest shard count
// against floor and reports whether it holds.
func checkPDESFloor(topoPath string, entries []pdesEntry, floor float64) bool {
	e := entries[len(entries)-1]
	verdict := "ok"
	if e.Speedup < floor {
		verdict = "FAILED"
	}
	fmt.Printf("pdes floor %s shards=%d: speedup %.2fx, floor %.1fx: %s\n",
		topoPath, e.Shards, e.Speedup, floor, verdict)
	return e.Speedup >= floor
}

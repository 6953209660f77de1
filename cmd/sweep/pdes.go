package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"tengig/internal/bench"
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

// runTopologySharded is runTopology's parallel twin: it drives the topology
// through the conservative parallel-DES runner and prints the identical flow
// and fabric report (the outputs are byte-equal by construction), plus the
// partition and synchronization summary.
func runTopologySharded(path string, shards int) {
	spec, err := topo.Load(path)
	if err != nil {
		log.Fatalf("topology: %v", err)
	}
	opts := pdes.Options{Shards: shards, Seed: *seed, Metrics: *metricsF}
	if *telemDir != "" {
		opts.Telemetry = &telemetry.Options{Enabled: true}
	}
	r, err := pdes.New(spec, opts)
	if err != nil {
		log.Fatalf("topology: %v", err)
	}
	start := time.Now()
	res, err := r.Run()
	if err != nil {
		log.Fatalf("topology: %v", err)
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
			log.Fatalf("topology: %v", err)
		}
		fmt.Printf("telemetry bundle written to %s\n", *telemDir)
	}
}

// measureSeries runs one topology's scaling series and prints each line.
func measureSeries(topoPath string, reps int) []bench.PDESEntry {
	wall1 := 0.0
	var out []bench.PDESEntry
	for _, n := range pdesBenchShards {
		wall, err := bench.MeasurePDES(topoPath, *seed, n, reps)
		if err != nil {
			log.Fatalf("pdes bench: %s shards=%d: %v", topoPath, n, err)
		}
		if n == 1 {
			wall1 = wall
		}
		e := bench.PDESEntry{Shards: n, WallMS: wall}
		if wall > 0 && wall1 > 0 {
			e.Speedup = wall1 / wall
		}
		out = append(out, e)
		fmt.Printf("  shards=%d  wall %8.2f ms  speedup %.2fx\n", n, e.WallMS, e.Speedup)
	}
	return out
}

// writePDESBench measures the sharded runner's wall-clock scaling over the
// long-lookahead benchmark topology and the short-lookahead LAN scenario,
// then writes BENCH_pdes.json-shaped output to path. The file self-describes
// the host (CPU count) because wall-clock speedup means nothing without it.
func writePDESBench(path string) {
	topoPath := *topoFile
	if topoPath == "" {
		topoPath = defaultPDESTopology
	}
	const reps = 5
	cpus := runtime.NumCPU()
	maxShards := pdesBenchShards[len(pdesBenchShards)-1]
	pf := &bench.PDESFile{
		Meta: &bench.Meta{
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
	pf.PDES = measureSeries(topoPath, reps)
	if topoPath != pdesShortTopology {
		fmt.Printf("pdes bench (short lookahead): %s\n", pdesShortTopology)
		pf.Short = &bench.PDESScenario{
			Topology: pdesShortTopology,
			Entries:  measureSeries(pdesShortTopology, reps),
		}
	}
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		log.Fatalf("pdes bench: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("pdes bench: %v", err)
	}
	fmt.Printf("wrote %s (%d shard counts)\n", path, len(pf.PDES))
}

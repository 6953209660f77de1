package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"tengig/internal/pdes"
	"tengig/internal/topo"
)

// PDESEntry is one shard count's parallel-DES measurement.
type PDESEntry struct {
	Shards int     `json:"shards"`
	WallMS float64 `json:"wall_ms"`
	// Speedup is wall(1 shard) / wall(this entry): the dimensionless number
	// the gate checks, so baselines stay comparable across machines.
	Speedup float64 `json:"speedup"`
}

// PDESScenario is one topology's scaling series inside BENCH_pdes.json.
type PDESScenario struct {
	Topology string      `json:"topology"`
	Entries  []PDESEntry `json:"entries"`
}

// PDESFile is BENCH_pdes.json: wall-clock scaling of the sharded simulation
// runner. PDES holds the primary (long-lookahead) topology's series; Short,
// when present, holds a short-lookahead LAN topology whose sub-microsecond
// windows stress the barrier itself.
type PDESFile struct {
	Meta  *Meta         `json:"meta,omitempty"`
	PDES  []PDESEntry   `json:"pdes"`
	Short *PDESScenario `json:"short,omitempty"`
}

// pdesSpeedupFloor is the contract at the largest recorded shard count on
// the primary topology: the parallel runner must at least halve the wall
// clock. It gates only on hosts with enough CPUs to run the shards in
// parallel.
const pdesSpeedupFloor = 2.0

// pdesShortFloor is the short-lookahead contract: with windows only
// hundreds of nanoseconds of simulated time wide, the barrier is the run —
// the runner must still beat the 1-shard wall clock, not merely tread water.
const pdesShortFloor = 1.0

// pdesReps is how many runs a measurement takes the median of.
const pdesReps = 3

// MeasurePDES runs the topology's flows under the sharded runner and
// returns the median wall-clock milliseconds over reps runs (first warm-up
// run discarded — it pays compile and allocator warm-up).
func MeasurePDES(topoPath string, seed int64, shards, reps int) (float64, error) {
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

// ComparePDES re-measures each recorded scaling series — the primary
// topology against the 2x floor, the short-lookahead scenario (if recorded)
// against the stay-ahead floor. Speedup is a property of parallel hardware:
// on hosts with fewer CPUs than shards the entries are skipped with the
// reason visible in the report, never silently passed.
func ComparePDES(pf *PDESFile) *Report {
	rep := &Report{}
	if len(pf.PDES) == 0 {
		rep.Skipped = append(rep.Skipped, "pdes: baseline has no entries")
		return rep
	}
	topoPath := ""
	var seed int64
	if pf.Meta != nil {
		topoPath = pf.Meta.Topology
		seed = pf.Meta.Seed
	}
	if topoPath == "" {
		rep.Skipped = append(rep.Skipped, "pdes: baseline meta names no topology")
		return rep
	}
	gateSeries(rep, "pdes", topoPath, seed, pf.PDES, pdesSpeedupFloor)
	if pf.Short != nil && len(pf.Short.Entries) > 0 && pf.Short.Topology != "" {
		gateSeries(rep, "pdes short", pf.Short.Topology, seed, pf.Short.Entries, pdesShortFloor)
	}
	return rep
}

// gateSeries re-measures one topology's scaling series and records a finding
// when the speedup at the largest shard count falls under floor.
func gateSeries(rep *Report, label, topoPath string, seed int64, entries []PDESEntry, floor float64) {
	maxShards := 0
	for _, e := range entries {
		if e.Shards > maxShards {
			maxShards = e.Shards
		}
	}
	if maxShards < 2 {
		rep.Skipped = append(rep.Skipped, fmt.Sprintf("%s: baseline records no multi-shard entry to floor", label))
		return
	}
	if cpus := runtime.NumCPU(); cpus < maxShards {
		rep.Skipped = append(rep.Skipped,
			fmt.Sprintf("%s: host has %d CPUs for %d shards (speedup needs parallel hardware)", label, cpus, maxShards))
		return
	}
	wall1 := 0.0
	walls := make(map[int]float64, len(entries))
	for _, e := range entries {
		w, err := MeasurePDES(topoPath, seed, e.Shards, pdesReps)
		if err != nil {
			rep.Skipped = append(rep.Skipped, fmt.Sprintf("%s: shards=%d: %v", label, e.Shards, err))
			return
		}
		walls[e.Shards] = w
		if e.Shards == 1 {
			wall1 = w
		}
	}
	if wall1 == 0 {
		rep.Skipped = append(rep.Skipped, fmt.Sprintf("%s: baseline records no 1-shard entry to compute speedup against", label))
		return
	}
	rep.Compared++
	if got := wall1 / walls[maxShards]; got < floor {
		rep.Regressions = append(rep.Regressions, Finding{
			Name:     fmt.Sprintf("%s shards=%d", label, maxShards),
			Metric:   "speedup",
			Baseline: floor, Current: got,
			DeltaPct: relDelta(floor, got) * 100,
		})
	}
}

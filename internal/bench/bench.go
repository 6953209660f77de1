// Package bench reads the repo's committed BENCH_*.json baselines and
// compares a current run against them, turning the bench files from
// documentation into an enforced contract. Three shapes exist at the repo
// root:
//
//   - BENCH_sweep.json:  per-figure sweep results (simulated Gb/s per
//     payload) written by `sweep -json`. Simulated throughput is
//     deterministic for a seed, so the gate compares it tightly across
//     machines.
//   - BENCH_kernel.json: discrete-event kernel hot-path benchmarks with
//     before/after measurements. Wall-clock ns/op is machine noise; the
//     gate enforces allocs/op, which is deterministic, by re-measuring the
//     same workloads in-process (see probe.go).
//   - BENCH_pdes.json:   wall-clock scaling of the sharded parallel-DES
//     runner. The gate re-measures in-process and enforces the speedup
//     floor at the largest shard count — but only on hosts with enough
//     CPUs to run the shards in parallel; elsewhere it skips visibly.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Measurement is one benchmark's recorded numbers (the BENCH_kernel.json
// leaf object).
type Measurement struct {
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	BytesPerOp  int64   `json:"bytes_op"`
}

// KernelEntry pairs a benchmark's recorded before/after measurements.
type KernelEntry struct {
	Before Measurement `json:"before"`
	After  Measurement `json:"after"`
}

// KernelFile is BENCH_kernel.json: the pre/post-optimization kernel
// benchmark table. "After" is the contract for the current tree.
type KernelFile struct {
	Description string                 `json:"description"`
	Benchmarks  map[string]KernelEntry `json:"benchmarks"`
}

// SweepPoint is one payload measurement in a recorded sweep.
type SweepPoint struct {
	Payload int     `json:"payload"`
	Gbps    float64 `json:"gbps"`
	WallMS  float64 `json:"wall_ms"`
}

// Sweep is one figure/config series in BENCH_sweep.json.
type Sweep struct {
	Figure string `json:"figure"`
	Label  string `json:"label"`
	// Profile names the host platform the sweep ran on (self-description
	// metadata; empty in files written before it existed).
	Profile     string       `json:"profile,omitempty"`
	Points      []SweepPoint `json:"points"`
	PeakPayload int          `json:"peak_payload"`
	PeakGbps    float64      `json:"peak_gbps"`
	WallMS      float64      `json:"wall_ms"`
}

// Meta is the run-level metadata block making a BENCH_sweep.json
// self-describing: what seed and resolution produced it. Files written while
// the scheduler and replica shape were selectable also carry "scheduler" and
// "replica" keys; loading ignores them.
type Meta struct {
	Seed     int64  `json:"seed,omitempty"`
	Count    int    `json:"count,omitempty"`
	Full     bool   `json:"full,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	Topology string `json:"topology,omitempty"`
	// CPUs records the measuring host's core count (BENCH_pdes.json):
	// wall-clock speedup is meaningless without it.
	CPUs int `json:"cpus,omitempty"`
	// Reps is how many runs each wall-clock median covers.
	Reps int `json:"reps,omitempty"`
	// Note carries free-form measurement caveats.
	Note string `json:"note,omitempty"`
}

// SweepFile is BENCH_sweep.json.
type SweepFile struct {
	Meta   *Meta   `json:"meta,omitempty"`
	Sweeps []Sweep `json:"sweeps"`
}

// Kind discriminates the three baseline file shapes.
type Kind string

const (
	KindSweep  Kind = "sweep"
	KindKernel Kind = "kernel"
	KindPDES   Kind = "pdes"
)

// File is one loaded baseline: exactly one of Sweeps/Kernel/PDES is set, per
// Kind.
type File struct {
	Path   string
	Kind   Kind
	Sweeps *SweepFile
	Kernel *KernelFile
	PDES   *PDESFile
}

// Load reads a baseline file and detects its shape from the top-level keys.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	f.Path = path
	return f, nil
}

// Parse detects and decodes one baseline file's contents.
func Parse(data []byte) (*File, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	switch {
	case top["sweeps"] != nil:
		var sf SweepFile
		if err := json.Unmarshal(data, &sf); err != nil {
			return nil, fmt.Errorf("bench: sweep file: %w", err)
		}
		return &File{Kind: KindSweep, Sweeps: &sf}, nil
	case top["benchmarks"] != nil:
		var kf KernelFile
		if err := json.Unmarshal(data, &kf); err != nil {
			return nil, fmt.Errorf("bench: kernel file: %w", err)
		}
		return &File{Kind: KindKernel, Kernel: &kf}, nil
	case top["pdes"] != nil:
		var pf PDESFile
		if err := json.Unmarshal(data, &pf); err != nil {
			return nil, fmt.Errorf("bench: pdes file: %w", err)
		}
		return &File{Kind: KindPDES, PDES: &pf}, nil
	}
	return nil, fmt.Errorf("bench: unrecognized baseline shape (no sweeps/benchmarks/pdes keys)")
}

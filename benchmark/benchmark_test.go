package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks the
// program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedUnit `json:"end_to_end"`
	PerLayer []namedUnit `json:"per_layer"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs one workload at tiny size and returns its exit code and the
// report on the last line of its output.
func runTiny(t *testing.T, args ...string) (int, report) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--seed", "1", "--seconds", "0.2", "--tiny", "--trace-dir", t.TempDir()}, args...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%v: last line is not a report: %v\nstdout:\n%s\nstderr:\n%s", args, err, &stdout, &stderr)
	}
	return code, rep
}

// TestSmoke runs every workload untraced and traced at tiny size: each run
// must pass its correctness checks and print exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	spec := loadBenchmarkSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for trace, want := range map[string][]namedUnit{"0": spec.EndToEnd, "1": spec.PerLayer} {
			code, rep := runTiny(t, "--workload", w, "--trace", trace)
			if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, report %+v", w, trace, code, rep)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json names %d", w, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s printed as %+v (present %v), want unit %s", w, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestWrongPinFails: a pinned digest the simulation does not reproduce
// fails every run and the exit code.
func TestWrongPinFails(t *testing.T) {
	pins := filepath.Join(t.TempDir(), "pins.json")
	if err := os.WriteFile(pins, []byte(`{"incast-fabric": "0000"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, rep := runTiny(t, "--workload", incastFabric, "--trace", "0", "--pins", pins)
	if code == 0 || rep.Correct || rep.Failed == 0 {
		t.Errorf("wrong pin: exit %d, report %+v", code, rep)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tengig/internal/sim.(*Engine).Step": "sim",
		"tengig/internal/runner.MapTimedWithProgress[go.shape.int,go.shape.struct { tengig/internal/core.X int }].func1": "runner",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"math/rand.(*rngSource).Uint64":                "other",
		"main.run":                                     "other",
		"tengig/internal/prof.Start":                   "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

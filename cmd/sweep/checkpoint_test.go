package main

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// metricsBlock extracts the "== campaign fleet metrics ==" report from a
// run's combined output, through its trailing blank line.
func metricsBlock(t *testing.T, out string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^== campaign fleet metrics ==\n(?:.+\n)*\n`).FindString(out)
	if m == "" {
		t.Fatalf("no fleet metrics block in output:\n%s", out)
	}
	return m
}

// normalizedBench reads a BENCH_sweep.json and zeroes every wall-clock field
// (the only nondeterministic content), leaving the simulated results.
func normalizedBench(t *testing.T, dir string) *sweepFile {
	t.Helper()
	sf := readSweepFile(t, filepath.Join(dir, "BENCH_sweep.json"))
	for i := range sf.Sweeps {
		sf.Sweeps[i].WallMS = 0
		for j := range sf.Sweeps[i].Points {
			sf.Sweeps[i].Points[j].WallMS = 0
		}
	}
	return sf
}

// TestCheckpointResumeExitCodes is the end-to-end acceptance proof for
// crash-safe campaigns: a -fig 3 run interrupted mid-campaign by an event
// budget exits non-zero leaving a partial journal, the -resume run restores
// the journaled points without re-simulating them, and the merged
// BENCH_sweep.json and fleet-metrics report are byte-identical (modulo wall
// clocks) to an uninterrupted run. It also pins the journal-safety refusals
// and the -skip-failures partial-campaign exit code.
func TestCheckpointResumeExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the sweep binary five times")
	}
	bin := buildSweep(t)
	run := func(dir string, args ...string) (string, int) { return runSweep(t, bin, dir, args...) }

	// Reference: one uninterrupted campaign.
	dirA, dirB := t.TempDir(), t.TempDir()
	outA, code := run(dirA, "-fig", "3", "-parallel", "-json", "-metrics")
	if code != 0 {
		t.Fatalf("uninterrupted run exited %d:\n%s", code, outA)
	}

	// The same campaign, killed mid-flight: an event budget that lets the
	// small payloads finish and starves a later one aborts the run exactly
	// like an operator kill — except the checkpoint journal survives.
	journal := filepath.Join(dirB, "cp.jsonl")
	out1, code := run(dirB, "-fig", "3", "-parallel", "-json", "-metrics",
		"-checkpoint", "cp.jsonl", "-limit-events", "100000")
	if code == 0 {
		t.Fatalf("budget-starved campaign exited 0:\n%s", out1)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("no journal after the interrupted run: %v", err)
	}
	// Header line plus one line per completed point: a genuine partial.
	const totalPoints = 2 * 22 // two fig-3 sweeps over the default payload grid
	if lines := strings.Count(string(data), "\n"); lines < 2 || lines > totalPoints {
		t.Fatalf("journal has %d lines; want a genuine partial of %d points", lines, totalPoints)
	}

	// Rerunning without -resume must refuse to clobber the journal.
	if out, code := run(dirB, "-fig", "3", "-checkpoint", "cp.jsonl"); code == 0 ||
		!strings.Contains(out, "resume it or remove it") {
		t.Fatalf("fresh run clobbered an existing journal (exit %d):\n%s", code, out)
	}
	// -resume without -checkpoint is a usage error.
	if _, code := run(dirB, "-fig", "3", "-resume"); code == 0 {
		t.Fatal("-resume without -checkpoint exited 0")
	}
	// A different campaign configuration must not fold into this journal.
	if out, code := run(dirB, "-fig", "3", "-seed", "2", "-checkpoint", "cp.jsonl", "-resume"); code == 0 ||
		!strings.Contains(out, "different campaign") {
		t.Fatalf("journal resumed under a different seed (exit %d):\n%s", code, out)
	}

	// Resume: restored points fold back, missing points re-simulate.
	out2, code := run(dirB, "-fig", "3", "-parallel", "-json", "-metrics",
		"-checkpoint", "cp.jsonl", "-resume")
	if code != 0 {
		t.Fatalf("resumed run exited %d:\n%s", code, out2)
	}
	if !strings.Contains(out2, "checkpoint: restored") {
		t.Fatalf("resumed run restored nothing:\n%s", out2)
	}

	// The merged campaign must be indistinguishable from the uninterrupted
	// one: BENCH results exactly equal once wall clocks are zeroed, and the
	// fleet-metrics report byte-identical.
	benchA, benchB := normalizedBench(t, dirA), normalizedBench(t, dirB)
	if !reflect.DeepEqual(benchA.Sweeps, benchB.Sweeps) {
		t.Errorf("BENCH sweeps diverged after resume:\nuninterrupted: %+v\nresumed:       %+v",
			benchA.Sweeps, benchB.Sweeps)
	}
	if metricsA, metricsB := metricsBlock(t, outA), metricsBlock(t, out2); metricsA != metricsB {
		t.Errorf("fleet metrics diverged after resume:\nuninterrupted:\n%s\nresumed:\n%s",
			metricsA, metricsB)
	}

	// -skip-failures converts the same starvation into contained per-point
	// failures: the campaign finishes, reports what it skipped, and exits
	// with the distinct partial-campaign code.
	outS, code := run(t.TempDir(), "-fig", "3", "-parallel", "-skip-failures", "-limit-events", "100000")
	if code != 3 {
		t.Fatalf("partial campaign exited %d, want 3:\n%s", code, outS)
	}
	if !strings.Contains(outS, "partial campaign:") || !strings.Contains(outS, "FAILED") {
		t.Fatalf("partial campaign summary missing:\n%s", outS)
	}
}

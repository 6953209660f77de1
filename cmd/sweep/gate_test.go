package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"tengig/internal/bench"
)

// TestGateExitCodes is the end-to-end acceptance proof for -gate: the built
// binary exits 0 when the run matches its own baseline and non-zero once a
// synthetic regression is injected into that baseline.
func TestGateExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the sweep binary three times")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(args ...string) (string, error) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	// Record a baseline from the current tree, gated against the committed
	// BENCH_sweep.json, whose meta still carries the retired scheduler key.
	committed, err := filepath.Abs("../../BENCH_sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	if out, err := run("-fig", "3", "-parallel", "-json", "-baseline", committed, "-gate"); err != nil {
		t.Fatalf("baseline run gated against %s: %v\n%s", committed, err, out)
	}
	basePath := filepath.Join(dir, "BENCH_sweep.json")

	// Same tree vs its own baseline: the gate must hold.
	if out, err := run("-fig", "3", "-parallel", "-baseline", basePath, "-gate"); err != nil {
		t.Fatalf("gate failed against the run's own baseline: %v\n%s", err, out)
	}

	// Inject a synthetic regression: claim the baseline was 20% faster.
	data, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	var sf bench.SweepFile
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Fatal(err)
	}
	if sf.Meta == nil || sf.Meta.Seed != 1 || sf.Meta.Count != 3000 {
		t.Errorf("BENCH_sweep.json meta %+v does not describe the run (seed 1, count 3000)", sf.Meta)
	}
	for i := range sf.Sweeps {
		if sf.Sweeps[i].Profile == "" {
			t.Error("sweep missing profile metadata")
		}
		for j := range sf.Sweeps[i].Points {
			sf.Sweeps[i].Points[j].Gbps *= 1.2
		}
		sf.Sweeps[i].PeakGbps *= 1.2
	}
	doctored, err := json.Marshal(&sf)
	if err != nil {
		t.Fatal(err)
	}
	regPath := filepath.Join(dir, "BENCH_regressed.json")
	if err := os.WriteFile(regPath, doctored, 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := run("-fig", "3", "-parallel", "-baseline", regPath, "-gate")
	if err == nil {
		t.Fatalf("gate passed against a regressed baseline:\n%s", out)
	}
	exitErr, ok := err.(*exec.ExitError)
	if !ok || exitErr.ExitCode() == 0 {
		t.Fatalf("expected non-zero exit, got %v\n%s", err, out)
	}

	// Without -gate the same regressions are advisory: exit stays zero.
	if out, err := run("-fig", "3", "-parallel", "-baseline", regPath); err != nil {
		t.Fatalf("advisory baseline comparison should not fail the run: %v\n%s", err, out)
	}
}

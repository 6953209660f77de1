package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildSweep builds the sweep binary into a temporary directory.
func buildSweep(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// runSweep runs bin with args in dir and returns its combined output and
// exit code.
func runSweep(t *testing.T, bin, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		exitErr, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %v: %v\n%s", args, err, out)
		}
		return string(out), exitErr.ExitCode()
	}
	return string(out), 0
}

// TestProfileSurvivesExit: a CPU profile is written however sweep exits,
// here by a usage error (2) and by a spec -shards refuses (1).
func TestProfileSurvivesExit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the sweep binary")
	}
	bin := buildSweep(t)
	dir := t.TempDir()
	spec := filepath.Join(dir, "multi-homed.json")
	if err := os.WriteFile(spec, []byte(`{"name":"mh","hosts":[{"name":"a"},{"name":"b"}],"switches":[{"name":"sw"}],`+
		`"links":[{"a":"a","b":"sw"},{"a":"a","b":"sw","name":"a2"},{"a":"b","b":"sw"}],`+
		`"flows":[{"src":"b","dst":"a","dst_nic":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		code int
		args []string
	}{
		{"usage", 2, []string{"-fig", "99"}},
		{"multi-homed", 1, []string{"-topology", spec, "-shards", "2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := filepath.Join(dir, c.name+".pprof")
			out, code := runSweep(t, bin, dir, append(c.args, "-cpuprofile", p)...)
			if code != c.code {
				t.Fatalf("exit %d, want %d:\n%s", code, c.code, out)
			}
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
				t.Fatalf("profile is %d bytes without a gzip header", len(data))
			}
		})
	}
}

// TestJSONWithoutSweepKeepsBench: -json on a selection that runs no figure
// sweep leaves BENCH_sweep.json byte-identical and exits non-zero.
func TestJSONWithoutSweepKeepsBench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the sweep binary")
	}
	bin := buildSweep(t)
	committed, err := os.ReadFile("../../BENCH_sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_sweep.json")
	if err := os.WriteFile(path, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runSweep(t, bin, dir, "-fig", "7", "-json")
	if code == 0 {
		t.Errorf("-fig 7 -json exited 0:\n%s", out)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, committed) {
		t.Errorf("-fig 7 -json rewrote BENCH_sweep.json (err %v):\n%s", err, after)
	}
}

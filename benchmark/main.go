// Command benchmark measures the tengig simulator on four seeded workloads
// shaped like the paper's testbeds and like cluster tori, and checks that
// the simulated outputs are correct while it does.
//
// Run it from the repository root, one workload per process:
//
//	bash benchmark/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, with host times scaled to a
// reference host speed (see refCalib); --trace 1 is the separate traced
// run that prints the per-layer metrics and writes spans.json, cpu.pprof and
// layers.json under --trace-dir. --workload all (the default) runs every
// workload in its own child process, one after another. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// The exit code is non-zero when any correctness check fails.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// Workload names. BENCHMARK.json and later changes cite them, so they do
// not change.
const (
	paperSweep   = "paper-sweep"
	incastFabric = "incast-fabric"
	pdesTorus    = "pdes-torus"
	wanFaults    = "wan-faults"
)

var workloadNames = []string{paperSweep, incastFabric, pdesTorus, wanFaults}

// pinnedDigests holds each workload's seed-1 output digest at full size.
//
//go:embed digests.json
var pinnedDigests []byte

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	tiny     bool
	pins     map[string]string // workload -> expected digest; nil = none apply
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var pinsFile string
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "host seconds of timed passes per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes spans.json, cpu.pprof and layers.json")
	fs.BoolVar(&cfg.tiny, "tiny", false, "shrink every workload's per-flow work (smoke tests)")
	fs.StringVar(&pinsFile, "pins", "", "JSON file of workload digests to enforce (default: the embedded seed-1 digests, enforced at seed 1 without -tiny)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg.trace = trace == 1
	pins, err := loadPins(pinsFile, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	cfg.pins = pins
	if cfg.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.tiny)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	// A run uses one CPU, collector included. On a shared host a pass
	// that needs two CPUs at once times how often the neighbours leave
	// both free: on a 2-vCPU cloud VM, two sweep workers or two pdes
	// shards on two CPUs spread 15-20% across runs where one CPU spreads
	// 4-10%.
	runtime.GOMAXPROCS(1)
	printHeader(stdout, cfg)
	rep, err := measure(w, cfg, stderr)
	fmt.Fprintf(stdout, "# loadavg_after=%s\n", loadavg())
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// loadPins returns the digests a run must reproduce. The embedded pins are
// taken at seed 1 and full size, so they apply only there; an explicit file
// always applies.
func loadPins(file string, cfg config) (map[string]string, error) {
	data := pinnedDigests
	if file != "" {
		var err error
		if data, err = os.ReadFile(file); err != nil {
			return nil, err
		}
	} else if cfg.seed != 1 || cfg.tiny {
		return nil, nil
	}
	var pins map[string]string
	if err := json.Unmarshal(data, &pins); err != nil {
		return nil, fmt.Errorf("pins: %w", err)
	}
	return pins, nil
}

// runAll runs every workload in its own child process, one after another,
// so no workload's heap or goroutines leak into the next one's numbers.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames {
		cmd := exec.Command(self, append(append([]string{}, args...), "--workload", name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintln(stderr, "benchmark:", err)
			}
			code = 1
		}
	}
	return code
}

// printHeader describes the host, so every number carries the machine it
// came from.
func printHeader(w io.Writer, cfg config) {
	fmt.Fprintf(w, "# tengig benchmark workload=%s seed=%d seconds=%g trace=%v tiny=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.tiny)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d go=%s commit=%s loadavg_before=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), loadavg())
}

// commit is the revision the binary was built from, as the go command
// stamped it from `git rev-parse HEAD` at build time ("unknown" when the
// source tree was not a git checkout).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// loadavg is the host's 1-minute load average.
func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	if f := strings.Fields(string(data)); len(f) > 0 {
		return f[0]
	}
	return "unknown"
}

// resetPeakRSS sets this process's resident-set high-water mark to its
// current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset VmHWM: %w", err)
	}
	return nil
}

// peakRSSMB is this process's resident-set high-water mark (VmHWM) since
// the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// span is one timed call into the simulator's public API, recorded by the
// benchmark around the call.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // -1 for a pass
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the time its children cover
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing but still times each call, so traced and untraced passes run the
// same code.
type tracer struct {
	t0    time.Time
	pass  int
	spans []span
	open  []int // indices of the spans not yet ended, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginPass opens a new pass's root span.
func (t *tracer) beginPass() func() time.Duration {
	if t != nil {
		t.pass++
	}
	return t.begin("pass")
}

// begin opens a span; the returned function closes it and returns its
// duration.
func (t *tracer) begin(name string) func() time.Duration {
	start := time.Now()
	if t == nil {
		return func() time.Duration { return time.Since(start) }
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Pass: t.pass, Start: start.Sub(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return func() time.Duration {
		d := time.Since(start)
		t.spans[id].End = t.spans[id].Start + d.Nanoseconds()
		t.open = t.open[:len(t.open)-1]
		return d
	}
}

// selfTimes fills each span's self time and sums self time by span name.
// Children of one span never overlap: every call runs on one goroutine.
func (t *tracer) selfTimes() map[string]float64 {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	bySelf := map[string]float64{}
	for _, s := range t.spans {
		bySelf[s.Name] += float64(s.Self) / 1e9
	}
	return bySelf
}

func (t *tracer) write(path, workload string, seed int64) error {
	bySelf := t.selfTimes()
	data, err := json.MarshalIndent(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Spans    []span             `json:"spans"`
		SelfS    map[string]float64 `json:"self_s_by_name"`
	}{workload, seed, t.spans, bySelf}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuLayers are the layers CPU samples are attributed to: the simulator's
// packages by name, the Go runtime, and everything else as "other".
var cpuLayers = []string{
	"sim", "tcp", "host", "mem", "pci", "nic", "phys", "fabric", "netem",
	"telemetry", "topo", "core", "pdes", "runner", "runtime", "packet", "ipv4",
	"ethernet", "alloc", "stats", "tools", "trace", "units", "other",
}

// layerOf maps a profiled function (as pprof names it) to its layer, by the
// package of the function.
func layerOf(fn string) string {
	// Generic instantiations and method receivers follow the package path;
	// cut them first, since they may contain slashes and dots of their own.
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "tengig/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "tengig/internal/"), "/")
		for _, l := range cpuLayers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// stdlibFrames matches functions of the Go standard library outside the
// runtime. Hiding them hands their samples to their callers, so JSON
// encoding done for a telemetry export counts as telemetry.
const stdlibFrames = `^(bufio|bytes|cmp|compress|container|context|crypto|encoding|errors|fmt|hash|internal/bytealg|io|iter|maps|math|os|path|reflect|slices|sort|strconv|strings|sync|syscall|time|unicode|unique)[./]`

// profileShares attributes a CPU profile's samples to layers by the package
// of each sample's innermost frame outside the standard library (pprof's
// flat time with those frames hidden), using the toolchain's offline pprof.
// It returns each layer's share and the profiled CPU time.
func profileShares(path string) (map[string]float64, time.Duration, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0",
		"-edgefraction=0", "-unit=ms", "-symbolize=none", "-hide="+stdlibFrames, path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	flat := map[string]time.Duration{}
	var total time.Duration
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		// Rows read: flat flat% sum% cum cum% function-name...
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue // the column header
		}
		flat[layerOf(strings.Join(f[5:], " "))] += d
		total += d
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = ratio(float64(flat[l]), float64(total))
	}
	return shares, total, sc.Err()
}

// mergeProfiles merges the per-pass CPU profiles into one file with the
// toolchain's pprof and removes the parts.
func mergeProfiles(out string, parts []string) error {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-proto", "-symbolize=none", "-output=" + out}, parts...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	for _, p := range parts {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}

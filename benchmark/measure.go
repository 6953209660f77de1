package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result, printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run prints, on every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"events_per_s", "events/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run prints. Every workload prints all
// of them; a layer the workload does not use reads 0.
var perLayer = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"sim.events", "events"},
		{"sim.high_water", "events"},
		{"sim.ns_per_event", "ns"},
		{"runtime.allocs_per_event", "allocs"},
		{"runtime.gc_cpu_share", "ratio"},
		{"runtime.alloc_mb_per_pass", "MB"},
		{"tcp.retx_ratio", "ratio"},
		{"tcp.timeouts", "count"},
		{"tcp.fast_retx", "count"},
		{"tcp.ooo_segs", "count"},
		{"host.cpu_util_sim", "ratio"},
		{"pci.util_sim", "ratio"},
		{"nic.irq_per_rx_pkt", "ratio"},
		{"fabric.forwarded", "packets"},
		{"fabric.drop_frac", "ratio"},
		{"fabric.max_queue_kb", "KB"},
		{"netem.seen", "packets"},
		{"netem.drop_frac", "ratio"},
		{"netem.dup", "packets"},
		{"telemetry.export_s", "s"},
		{"telemetry.export_mb", "MB"},
		{"topo.parse_s", "s"},
		{"topo.compile_s", "s"},
		{"core.point_setup_us", "us"},
		{"pdes.new_s", "s"},
		{"pdes.windows", "count"},
		{"pdes.events_per_window", "events"},
		{"pdes.sync_share", "ratio"},
		{"pdes.speedup_vs_serial", "ratio"},
		{"runner.worker_util", "ratio"},
		{"profile.cpu_s", "s"},
		{"profile.named_share", "ratio"},
		{"trace_overhead", "ratio"},
	}
	for _, l := range cpuLayers {
		m = append(m, struct{ name, unit string }{l + ".cpu_share", "ratio"})
	}
	for _, st := range magnetStages {
		m = append(m, struct{ name, unit string }{"magnet." + string(st) + ".us", "us"})
	}
	return m
}()

// minSetupReps is the fewest set-up repetitions setup_s is the median of.
const minSetupReps = 25

// session is one run of one workload: its configuration and the runs
// attempted and failed so far.
type session struct {
	cfg       config
	w         workload
	log       io.Writer
	attempted int
	failed    int
	digest    string // the first pass's digest; every later pass must match it
	calib     *calibrator
}

func measure(w workload, cfg config, log io.Writer) (*report, error) {
	s := &session{cfg: cfg, w: w, log: log, calib: newCalibrator()}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	setups, setupScale, err := s.setups(budget / 15)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	start := time.Now()
	if s.pass(nil, warmUp, nil) == nil {
		return nil, errors.New("warm-up pass failed")
	}
	before := s.calib.after(time.Since(start))
	if cfg.trace {
		return s.traced(setups, budget)
	}
	passes := s.passes(before, budget)
	if len(passes) == 0 {
		return nil, errors.New("no timed pass succeeded")
	}
	s.check(passes)
	var scaledWalls, rates, rss []float64
	for _, p := range passes {
		scaledWalls = append(scaledWalls, p.wall.Seconds()*p.scale)
		rates = append(rates, ratio(float64(p.events), p.run.Seconds()*p.scale))
		rss = append(rss, p.rssMB)
	}
	var setupTotals []float64
	for _, st := range setups {
		setupTotals = append(setupTotals, st.total.Seconds())
	}
	values := map[string]float64{
		"setup_s":      median(setupTotals) * setupScale,
		"wall_s":       median(scaledWalls),
		"events_per_s": median(rates),
		"peak_rss_mb":  median(rss),
	}
	fmt.Fprintf(log, "benchmark: %s: %d timed passes; %d calibration samples, median %.2f ms; unscaled wall_s %.4f s, setup_s %.6f s\n",
		cfg.workload, len(passes), len(s.calib.samples), median(s.calib.samples)*1e3, median(walls(passes)), median(setupTotals))
	return s.report(endToEnd, values), nil
}

// traced is the separate traced run. It alternates untraced passes, the
// baseline for trace_overhead and the runtime counters, with traced passes
// under the CPU profiler, so a drift in the host's speed during the run
// hits both kinds alike.
func (s *session) traced(setups []setupResult, budget time.Duration) (*report, error) {
	dir := filepath.Join(s.cfg.traceDir, s.cfg.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	values := map[string]float64{}
	for _, name := range []string{"topo.parse_s", "topo.compile_s", "pdes.new_s", "core.point_setup_us"} {
		var xs []float64
		for _, st := range setups {
			if v, ok := st.parts[name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			values[name] = median(xs)
		}
	}

	tr := newTracer()
	var plain, traced []*passResult
	var parts []string
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < budget {
		p := s.pass(nil, timedPass, nil)
		if p == nil {
			break
		}
		plain = append(plain, p)
		part := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", len(parts)))
		f, err := os.Create(part)
		if err != nil {
			return nil, err
		}
		p = s.pass(tr, tracedPass, f)
		if err := f.Close(); err != nil {
			return nil, err
		}
		parts = append(parts, part)
		if p == nil {
			break
		}
		traced = append(traced, p)
	}
	if len(traced) == 0 {
		return nil, errors.New("no traced pass succeeded")
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	if err := mergeProfiles(profPath, parts); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(dir, "spans.json"), s.cfg.workload, s.cfg.seed); err != nil {
		return nil, err
	}

	var rt runtimeStats
	var events float64
	for _, p := range plain {
		rt = rt.plus(p.rt, 1)
		events += float64(p.events)
	}
	values["runtime.gc_cpu_share"] = ratio(rt.gcCPU, rt.usedCPU)
	values["runtime.alloc_mb_per_pass"] = rt.allocBytes / 1e6 / float64(len(plain))
	values["runtime.allocs_per_event"] = ratio(rt.allocObjects, events)
	for name, v := range medianHost(plain) {
		values[name] = v
	}
	extra := s.check(plain)
	runs := make([]float64, len(plain))
	for i, p := range plain {
		runs[i] = p.run.Seconds()
	}
	values["pdes.speedup_vs_serial"] = ratio(extra["pdes.serial_s"], median(runs))

	shares, cpu, err := profileShares(profPath)
	if err != nil {
		return nil, err
	}
	for l, v := range shares {
		values[l+".cpu_share"] = v
	}
	values["profile.cpu_s"] = cpu.Seconds()
	values["profile.named_share"] = 1 - shares["other"]
	var tracedEvents float64
	for _, p := range traced {
		tracedEvents += float64(p.events)
	}
	values["sim.ns_per_event"] = ratio(shares["sim"]*float64(cpu.Nanoseconds()), tracedEvents)
	values["trace_overhead"] = ratio(median(walls(traced)), median(walls(plain))) - 1
	for name, v := range traced[len(traced)-1].counters {
		values[name] = v
	}

	rep := s.report(perLayer, values)
	data, err := json.MarshalIndent(rep.Metrics, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), data, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(s.log, "benchmark: %s: traced run wrote %s\n", s.cfg.workload, dir)
	return rep, nil
}

// setups repeats the workload's set-up at least minSetupReps times and
// until budget is spent, with calibration samples after each repetition.
// It returns the repetitions and the factor that scales their host times.
func (s *session) setups(budget time.Duration) ([]setupResult, float64, error) {
	var out []setupResult
	var samples []float64
	start := time.Now()
	for len(out) < minSetupReps || time.Since(start) < budget {
		st, err := s.w.setup()
		if err != nil {
			return nil, 0, err
		}
		out = append(out, st)
		samples = append(samples, s.calib.after(st.total)...)
	}
	return out, scale(samples, nil), nil
}

// passes runs timed closed-loop passes, the next starting when the previous
// one and the calibration samples after it end, until budget is spent (at
// least one pass). Each pass is scaled by the samples just before and just
// after it, before holding the samples taken ahead of the first. It stops
// early at the first pass that errors: the run is already incorrect.
func (s *session) passes(before []float64, budget time.Duration) []*passResult {
	var out []*passResult
	start := time.Now()
	for len(out) == 0 || time.Since(start) < budget {
		p := s.pass(nil, timedPass, nil)
		if p == nil {
			break
		}
		after := s.calib.after(p.wall)
		p.scale = scale(before, after)
		before = after
		out = append(out, p)
	}
	return out
}

// pass runs one pass and checks its digest against the first pass's and
// against the pinned one; a mismatch fails the pass's runs but keeps its
// timings. With prof set, the pass runs under the CPU profiler, which
// writes there. It returns nil when the pass errored.
//
// Every pass starts from a collected heap returned to the operating system,
// with the process's resident-set high-water mark reset, so no pass pays
// for collecting its predecessor's garbage and the pass's peak resident
// set is its own.
func (s *session) pass(tr *tracer, m mode, prof io.Writer) *passResult {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(s.log, "benchmark: %s: %v\n", s.cfg.workload, err)
		return nil
	}
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			fmt.Fprintf(s.log, "benchmark: %s: %v\n", s.cfg.workload, err)
			return nil
		}
	}
	before := readRuntime()
	p, err := s.w.pass(tr, m)
	after := readRuntime()
	if prof != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		n := s.w.runsPerPass()
		s.attempted += n
		s.failed += n
		fmt.Fprintf(s.log, "benchmark: %s: pass failed: %v\n", s.cfg.workload, err)
		return nil
	}
	p.rt = after.plus(before, -1)
	if p.rssMB, err = peakRSSMB(); err != nil {
		fmt.Fprintf(s.log, "benchmark: %s: %v\n", s.cfg.workload, err)
		return nil
	}
	s.attempted += p.runs
	if s.digest == "" {
		s.digest = p.digest
		fmt.Fprintf(s.log, "benchmark: digest %s %s\n", s.cfg.workload, p.digest)
	}
	pin, pinned := s.cfg.pins[s.cfg.workload]
	switch {
	case p.digest != s.digest:
		fmt.Fprintf(s.log, "benchmark: %s: pass digest %s differs from the first pass's %s\n", s.cfg.workload, p.digest, s.digest)
		s.failed += p.runs
	case pinned && p.digest != pin:
		fmt.Fprintf(s.log, "benchmark: %s: digest %s differs from the pinned %s\n", s.cfg.workload, p.digest, pin)
		s.failed += p.runs
	}
	return p
}

// check runs the workload's reference check against the last pass; a
// mismatch fails that pass's runs.
func (s *session) check(passes []*passResult) map[string]float64 {
	extra, err := s.w.check()
	if err != nil {
		fmt.Fprintf(s.log, "benchmark: %s: check failed: %v\n", s.cfg.workload, err)
		s.failed += passes[len(passes)-1].runs
	}
	return extra
}

func (s *session) report(table []struct{ name, unit string }, values map[string]float64) *report {
	rep := &report{
		Correct:   s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   make(map[string]metric, len(table)),
	}
	for _, m := range table {
		rep.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return rep
}

// medianHost is the per-metric median of the passes' host-time values.
func medianHost(passes []*passResult) map[string]float64 {
	xs := map[string][]float64{}
	for _, p := range passes {
		for name, v := range p.host {
			xs[name] = append(xs[name], v)
		}
	}
	out := make(map[string]float64, len(xs))
	for name, v := range xs {
		out[name] = median(v)
	}
	return out
}

func walls(passes []*passResult) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p.wall.Seconds()
	}
	return out
}

// runtimeStats are the Go runtime's CPU and allocation counters, or the
// change in them over one pass.
type runtimeStats struct {
	gcCPU, usedCPU, allocBytes, allocObjects float64
}

// plus is a + sign*b, counter by counter.
func (a runtimeStats) plus(b runtimeStats, sign float64) runtimeStats {
	return runtimeStats{
		gcCPU:        a.gcCPU + sign*b.gcCPU,
		usedCPU:      a.usedCPU + sign*b.usedCPU,
		allocBytes:   a.allocBytes + sign*b.allocBytes,
		allocObjects: a.allocObjects + sign*b.allocObjects,
	}
}

// readRuntime samples the Go runtime's cumulative CPU and allocation
// counters.
func readRuntime() runtimeStats {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(samples)
	v := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		}
		return 0
	}
	return runtimeStats{gcCPU: v(0), usedCPU: v(1) - v(2), allocBytes: v(3), allocObjects: v(4)}
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

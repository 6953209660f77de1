package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"time"

	"tengig/internal/core"
	"tengig/internal/pdes"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/trace"
	"tengig/internal/units"
)

// mode says what a pass is for.
type mode int

const (
	warmUp     mode = iota // first pass: fills caches; paper-sweep counts events here
	timedPass              // a measured pass, tracing off
	tracedPass             // a measured pass with MAGNET tracers and spans on
)

// passResult is one closed-loop pass over a workload's fixed input.
type passResult struct {
	wall   time.Duration // the whole pass, set-up included
	run    time.Duration // the run phase
	runs   int           // runs in the pass: sweep points, or 1 topology pass
	events uint64        // simulated events of the pass
	digest string        // SHA-256 of the pass's simulated outputs
	// counters are deterministic per-layer counts; host holds per-layer
	// host times, which a traced run reports as medians over passes.
	counters map[string]float64
	host     map[string]float64
	rt       runtimeStats // the runtime's counters over the pass
	rssMB    float64      // the process's peak resident set during the pass
	// scale turns the pass's host times into the reference host's (see
	// refCalib); timed passes only.
	scale float64
}

// setupResult is one set-up repetition: its total host time and its parts,
// keyed by per-layer metric name.
type setupResult struct {
	total time.Duration
	parts map[string]float64
}

// workload drives one seeded input through the simulator's public entry
// points.
type workload interface {
	runsPerPass() int
	setup() (setupResult, error)
	pass(tr *tracer, m mode) (*passResult, error)
	// check verifies the last pass against a reference too costly to build
	// every pass. It returns host times it measured along the way.
	check() (map[string]float64, error)
}

func newWorkload(name string, seed int64, tiny bool) (workload, error) {
	switch name {
	case paperSweep:
		return &sweepWorkload{configs: sweepConfigs(seed, tiny)}, nil
	case incastFabric:
		spec, err := incastSpec(seed, tiny)
		return &topoWorkload{name: name, seed: seed, spec: spec}, err
	case pdesTorus:
		spec, err := torusSpec(seed, tiny)
		return &torusWorkload{seed: seed, spec: spec}, err
	case wanFaults:
		spec, err := wanSpec(seed, tiny)
		return &topoWorkload{name: name, seed: seed, spec: spec, telemetry: true}, err
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
}

// flowTimeout bounds every topology pass in simulated time.
const flowTimeout = 10 * units.Minute

// sweepWorkload is paper-sweep: six core.SweepConfig runs per pass.
type sweepWorkload struct {
	configs []core.SweepConfig
	// events and counters are deterministic per pass; the warm-up pass
	// counts them through telemetry bundles, which timed passes leave off.
	events   uint64
	counters map[string]float64
}

// sweepRow is one result row: everything a point reports except host time.
type sweepRow struct {
	Label   string
	Payload int
	Result  tools.ThroughputResult
}

func (w *sweepWorkload) runsPerPass() int {
	n := 0
	for _, c := range w.configs {
		n += len(c.Payloads)
	}
	return n
}

// setup runs the same grid at Count 1: what every point pays to build its
// testbed and connect before the transfer starts.
func (w *sweepWorkload) setup() (setupResult, error) {
	start := time.Now()
	for _, c := range w.configs {
		c.Count = 1
		if _, err := c.Run(); err != nil {
			return setupResult{}, err
		}
	}
	total := time.Since(start)
	perPoint := total.Seconds() * 1e6 / float64(w.runsPerPass())
	return setupResult{total: total, parts: map[string]float64{"core.point_setup_us": perPoint}}, nil
}

func (w *sweepWorkload) pass(tr *tracer, m mode) (*passResult, error) {
	p := &passResult{counters: map[string]float64{}, host: map[string]float64{}}
	endPass := tr.beginPass()
	rows, err := w.drive(tr, m, p)
	p.wall = endPass()
	p.run = p.wall
	if err != nil {
		return nil, err
	}
	p.digest, err = digest(rows)
	return p, err
}

func (w *sweepWorkload) drive(tr *tracer, m mode, p *passResult) ([]sweepRow, error) {
	var rows []sweepRow
	var pointWall, sweepWall time.Duration
	var events uint64
	var highWater int
	var retx, segs, timeouts, fastRetx int64
	for _, c := range w.configs {
		if m == warmUp {
			c.Telemetry = telemetry.Options{Enabled: true, SampleInterval: units.Second}
		}
		end := tr.begin("SweepConfig.Run[" + c.Tuning.Label() + "]")
		res, err := c.Run()
		sweepWall += end()
		if err != nil {
			return nil, fmt.Errorf("sweep %s: %w", c.Tuning.Label(), err)
		}
		// Data segments are estimated at full MSS (IP, TCP and timestamp
		// headers off the MTU): a sweep exposes no per-connection stats.
		mss := int64(c.Tuning.MTU - 52)
		for _, pt := range res.Points {
			rows = append(rows, sweepRow{res.Label, pt.Payload, pt.ThroughputResult})
			pointWall += pt.Wall
			retx += pt.Retransmits
			segs += (pt.Bytes + mss - 1) / mss
			if b := pt.Telemetry; b != nil {
				events += b.Engine.Events
				highWater = max(highWater, b.Engine.HighWater)
				for _, r := range b.Conns {
					timeouts += r.KindCount(telemetry.EventRTO)
					fastRetx += r.KindCount(telemetry.EventFastRetransmit)
				}
			}
		}
	}
	p.runs = len(rows)
	if m == warmUp {
		w.events = events
		w.counters = map[string]float64{
			"sim.events":     float64(events),
			"sim.high_water": float64(highWater),
			"tcp.retx_ratio": ratio(float64(retx), float64(segs)),
			"tcp.timeouts":   float64(timeouts),
			"tcp.fast_retx":  float64(fastRetx),
		}
	}
	p.events = w.events
	for k, v := range w.counters {
		p.counters[k] = v
	}
	p.host["runner.worker_util"] = ratio(pointWall.Seconds(), float64(sweepWorkers)*sweepWall.Seconds())
	return rows, nil
}

func (w *sweepWorkload) check() (map[string]float64, error) { return nil, nil }

// topoWorkload is a generated topology compiled onto one engine and driven
// by RunFlows: incast-fabric, and wan-faults with telemetry on.
type topoWorkload struct {
	name string
	seed int64
	spec []byte
	// telemetry attaches recorders at a 10 ms cadence and exports the
	// JSONL bundle every pass.
	telemetry bool
	lastJSONL []byte
}

// wan-faults' recorders sample every 10 ms and keep at most 1024 samples
// (10 simulated seconds) per connection, so a seed whose recovery runs
// long does not export a far larger bundle than the rest.
const (
	telemetryCadence    = 10 * units.Millisecond
	telemetryMaxSamples = 1024
)

func (w *topoWorkload) runsPerPass() int { return 1 }

func (w *topoWorkload) build(tr *tracer) (*topo.Network, *telemetry.Bundle, map[string]float64, error) {
	end := tr.begin("topo.Parse")
	s, err := topo.Parse(w.spec)
	parse := end()
	if err != nil {
		return nil, nil, nil, err
	}
	end = tr.begin("topo.Compile")
	n, err := topo.Compile(sim.NewEngine(w.seed), s, w.seed)
	compile := end()
	if err != nil {
		return nil, nil, nil, err
	}
	var b *telemetry.Bundle
	if w.telemetry {
		end = tr.begin("AttachTelemetry")
		b = n.AttachTelemetry(w.name, w.seed, telemetry.Options{Enabled: true, SampleInterval: telemetryCadence, MaxSamples: telemetryMaxSamples})
		end()
	}
	return n, b, map[string]float64{"topo.parse_s": parse.Seconds(), "topo.compile_s": compile.Seconds()}, nil
}

func (w *topoWorkload) setup() (setupResult, error) {
	start := time.Now()
	_, _, parts, err := w.build(nil)
	return setupResult{total: time.Since(start), parts: parts}, err
}

// topoOutput is what a topology pass's digest covers.
type topoOutput struct {
	Flows     []topo.FlowResult
	Fabric    []telemetry.FabricCounters
	Events    uint64
	HighWater int
}

func (w *topoWorkload) pass(tr *tracer, m mode) (*passResult, error) {
	p := &passResult{runs: 1, counters: map[string]float64{}, host: map[string]float64{}}
	endPass := tr.beginPass()
	out, err := w.drive(tr, m, p)
	p.wall = endPass()
	if err != nil {
		return nil, err
	}
	p.digest, err = digest(out)
	return p, err
}

// drive builds the network, runs its flows and reads its counters. It
// returns the outputs the pass's digest covers: the telemetry JSONL when
// telemetry is on, the flows and counters otherwise.
func (w *topoWorkload) drive(tr *tracer, m mode, p *passResult) (any, error) {
	n, b, _, err := w.build(tr)
	if err != nil {
		return nil, err
	}
	var magnet *trace.Tracer
	if m == tracedPass {
		magnet = trace.New(64, 0)
		for _, h := range n.Spec.Hosts {
			n.Host(h.Name).SetTracer(magnet)
		}
	}
	end := tr.begin("RunFlows")
	flows, err := n.RunFlows(flowTimeout)
	p.run = end()
	if err != nil {
		return nil, err
	}
	eng := n.Eng
	p.events = eng.Executed
	fabric := n.FabricCounters()
	var out any = topoOutput{flows, fabric, eng.Executed, eng.HighWater}
	if b != nil {
		b.CaptureEngine(eng.Executed, eng.HighWater)
		n.CaptureFabric(b)
		b.CaptureMetrics(n.CollectMetrics(flows))
		end = tr.begin("ExportJSONL")
		jsonl := b.ExportJSONL()
		p.host["telemetry.export_s"] = end().Seconds()
		p.counters["telemetry.export_mb"] = float64(len(jsonl)) / 1e6
		w.lastJSONL = jsonl
		out = jsonl
	}
	networkCounters(n, p.counters)
	fabricCounters(fabric, p.counters)
	p.counters["sim.events"] = float64(eng.Executed)
	p.counters["sim.high_water"] = float64(eng.HighWater)
	for _, st := range magnetStages {
		mean, _ := magnet.StageCost(st)
		p.counters["magnet."+string(st)+".us"] = mean
	}
	return out, nil
}

// check proves the exported JSONL is machine-readable: it parses back
// into a bundle whose export is byte-identical.
func (w *topoWorkload) check() (map[string]float64, error) {
	if w.lastJSONL == nil {
		return nil, nil
	}
	b, err := telemetry.ParseJSONL(w.lastJSONL)
	if err != nil {
		return nil, fmt.Errorf("telemetry JSONL does not parse: %w", err)
	}
	if !bytes.Equal(b.ExportJSONL(), w.lastJSONL) {
		return nil, errors.New("telemetry JSONL does not round-trip through ParseJSONL")
	}
	return nil, nil
}

// networkCounters reads the tcp, host, pci, nic and netem counters of a
// finished network through its public accessors. Host-side numbers average
// over the hosts that end a flow; idle hosts would only dilute them.
func networkCounters(n *topo.Network, c map[string]float64) {
	var retx, dataSegs, timeouts, fastRetx, ooo int64
	for _, p := range n.Pairs {
		s := p.Src.Conn.Stats
		retx += s.Retransmits
		dataSegs += s.DataSegsOut
		timeouts += s.Timeouts
		fastRetx += s.FastRetransmits
		ooo += p.Dst.Conn.Stats.OutOfOrderSegs
	}
	c["tcp.retx_ratio"] = ratio(float64(retx), float64(dataSegs))
	c["tcp.timeouts"] = float64(timeouts)
	c["tcp.fast_retx"] = float64(fastRetx)
	c["tcp.ooo_segs"] = float64(ooo)

	endpoints := map[string]bool{}
	for _, f := range n.Spec.Flows {
		endpoints[f.Src], endpoints[f.Dst] = true, true
	}
	now := n.Eng.Now().Seconds()
	var cpuUtil, pciUtil float64
	var irqs, rxPkts int64
	for _, hs := range n.Spec.Hosts {
		if !endpoints[hs.Name] {
			continue
		}
		h := n.Host(hs.Name)
		cpuUtil += ratio(h.TotalBusy().Seconds(), float64(h.NumCPU())*now)
		port := h.NIC(0)
		pciUtil += port.Bus.Utilization()
		irqs += port.Adapter.Stats.Interrupts
		rxPkts += port.Adapter.Stats.RxPackets
	}
	c["host.cpu_util_sim"] = ratio(cpuUtil, float64(len(endpoints)))
	c["pci.util_sim"] = ratio(pciUtil, float64(len(endpoints)))
	c["nic.irq_per_rx_pkt"] = ratio(float64(irqs), float64(rxPkts))

	ims, _ := n.Impairs()
	var seen, dropped, dup int64
	for _, im := range ims {
		seen += im.Seen()
		dropped += im.Dropped()
		dup += im.Duplicated()
	}
	c["netem.seen"] = float64(seen)
	c["netem.drop_frac"] = ratio(float64(dropped), float64(seen))
	c["netem.dup"] = float64(dup)
}

func fabricCounters(fcs []telemetry.FabricCounters, c map[string]float64) {
	var fwd, drops, maxQueued int64
	for _, fc := range fcs {
		fwd += fc.Forwarded
		drops += fc.Dropped
		for _, port := range fc.Ports {
			maxQueued = max(maxQueued, port.MaxQueued)
		}
	}
	c["fabric.forwarded"] = float64(fwd)
	c["fabric.drop_frac"] = ratio(float64(drops), float64(fwd+drops))
	c["fabric.max_queue_kb"] = float64(maxQueued) / 1024
}

// torusWorkload is pdes-torus: the generated torus run by the parallel-DES
// runner on two shards.
type torusWorkload struct {
	seed int64
	spec []byte
	last *pdes.Result
}

// torusShards is pdes-torus' shard count. A run uses one CPU (see run), so
// the two shards take turns on it: the workload measures what the parallel
// machinery costs, not what it gains.
const torusShards = 2

// torusBarrier is the channel barrier, not the default spin barrier. The
// spin barrier's releaser can be preempted between flipping the sense and
// waking parked waiters; a waiter that meanwhile runs the next window and
// parks again has its new intent claimed by the stale wake, returns
// early, and reruns the window. That surfaces as "injecting at or before
// now (lookahead violated)" panics, and sometimes a hang on the error
// path, a few times per thousand passes on a 2-CPU host. A workload that
// fails or hangs at random cannot be measured; switch back once the
// barrier is fixed.
const torusBarrier = pdes.BarrierChan

func (w *torusWorkload) runsPerPass() int { return 1 }

func (w *torusWorkload) newRunner(tr *tracer, shards int) (*pdes.Runner, map[string]float64, error) {
	end := tr.begin("topo.Parse")
	s, err := topo.Parse(w.spec)
	parse := end()
	if err != nil {
		return nil, nil, err
	}
	end = tr.begin("pdes.New")
	r, err := pdes.New(s, pdes.Options{Shards: shards, Seed: w.seed, Timeout: flowTimeout, Barrier: torusBarrier})
	newTime := end()
	return r, map[string]float64{"topo.parse_s": parse.Seconds(), "pdes.new_s": newTime.Seconds()}, err
}

func (w *torusWorkload) setup() (setupResult, error) {
	start := time.Now()
	_, parts, err := w.newRunner(nil, torusShards)
	return setupResult{total: time.Since(start), parts: parts}, err
}

func (w *torusWorkload) pass(tr *tracer, _ mode) (*passResult, error) {
	p := &passResult{runs: 1, counters: map[string]float64{}, host: map[string]float64{}}
	endPass := tr.beginPass()
	res, err := w.drive(tr, p)
	p.wall = endPass()
	if err != nil {
		return nil, err
	}
	p.digest, err = digest(topoOutput{res.Flows, res.Fabric, res.Events, res.HighWater})
	return p, err
}

func (w *torusWorkload) drive(tr *tracer, p *passResult) (*pdes.Result, error) {
	r, _, err := w.newRunner(tr, torusShards)
	if err != nil {
		return nil, err
	}
	if r.Replica() != pdes.ReplicaSparse {
		return nil, fmt.Errorf("pdes picked %v replicas, want sparse (fallback: %v)", r.Replica(), r.SparseFallback())
	}
	end := tr.begin("Runner.Run")
	res, err := r.Run()
	p.run = end()
	if err != nil {
		return nil, err
	}
	w.last = res
	p.events = res.Events
	p.counters["sim.events"] = float64(res.Events)
	p.counters["pdes.windows"] = float64(res.Windows)
	p.counters["pdes.events_per_window"] = ratio(float64(res.Events), float64(res.Windows))
	fabricCounters(res.Fabric, p.counters)
	p.host["pdes.sync_share"] = ratio(res.SyncWall.Seconds(), float64(torusShards)*p.run.Seconds())
	return res, nil
}

// check runs the same spec on one engine and requires the sharded run's
// flows, fabric counters and event count to be identical to it.
func (w *torusWorkload) check() (map[string]float64, error) {
	if w.last == nil {
		return nil, nil
	}
	r, _, err := w.newRunner(nil, 1)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	serial, err := r.Run()
	if err != nil {
		return nil, fmt.Errorf("one-engine reference: %w", err)
	}
	elapsed := time.Since(start).Seconds()
	switch {
	case !reflect.DeepEqual(serial.Flows, w.last.Flows):
		return nil, errors.New("sharded flows differ from the one-engine run")
	case !reflect.DeepEqual(serial.Fabric, w.last.Fabric):
		return nil, errors.New("sharded fabric counters differ from the one-engine run")
	case serial.Events != w.last.Events:
		return nil, fmt.Errorf("sharded run executed %d events, one engine %d", w.last.Events, serial.Events)
	}
	return map[string]float64{"pdes.serial_s": elapsed}, nil
}

// magnetStages are the MAGNET analog's canonical packet-path stages.
var magnetStages = []trace.Stage{
	trace.StageAppWrite, trace.StageTCPOut, trace.StageIPOut, trace.StageDriverTx,
	trace.StageDMATx, trace.StageWire, trace.StageDMARx, trace.StageIRQ,
	trace.StageIPIn, trace.StageTCPIn, trace.StageSockQueue, trace.StageAppRead,
}

// digest is the SHA-256 of a pass's outputs: raw bytes as they are,
// anything else as JSON. Passes compute it after their timing ends.
func digest(v any) (string, error) {
	data, ok := v.([]byte)
	if !ok {
		var err error
		if data, err = json.Marshal(v); err != nil {
			return "", err
		}
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

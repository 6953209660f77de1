package core

import (
	"errors"
	"fmt"
	"time"

	"tengig/internal/host"
	"tengig/internal/runner"
	"tengig/internal/sim"
	"tengig/internal/stats"
	"tengig/internal/telemetry"
	"tengig/internal/tools"
	"tengig/internal/units"
)

// SweepConfig describes a throughput-vs-payload sweep (Figures 3, 4, 5).
type SweepConfig struct {
	Seed    int64
	Profile Profile
	Tuning  Tuning
	// Payloads are the application write sizes; DefaultPayloads() mirrors
	// the paper's 128 B – 16 KB range.
	Payloads []int
	// Count is the number of writes per point (the paper uses 32768;
	// smaller values trade smoothness for speed).
	Count int
	// ViaSwitch routes through the FastIron (Figure 2(b)) instead of the
	// crossover cable.
	ViaSwitch bool
	// Timeout bounds each point's simulated time.
	Timeout units.Time
	// Workers fans the payload points out across a worker pool. Each point
	// builds a private engine seeded from Seed, so the result rows are
	// byte-identical to a serial run regardless of scheduling. 0 or 1 runs
	// serially; negative uses one worker per CPU.
	Workers int
	// Telemetry, when Enabled, attaches a Web100-style instrument bundle to
	// every point's connection pair. Bundles ride along on the points; their
	// exports are byte-identical between serial and parallel runs because
	// each point's recorder lives entirely inside that point's simulation.
	Telemetry telemetry.Options
	// SkipFailures contains per-point failures: a panicking or erroring
	// point is recorded on its Point (and excluded from the series) instead
	// of aborting the sweep, so one bad point never kills the run.
	SkipFailures bool
	// Retries re-runs a failing point up to this many extra times before
	// its failure stands (SkipFailures mode only).
	Retries int
	// CrashDir, when set, writes a replayable crash-bundle JSON for every
	// point whose failure was a contained panic (SkipFailures mode only).
	CrashDir string
	// PointHook, when set, runs before each point's testbed is built. It is
	// the fault-injection port for the crash-containment tests (a hook that
	// panics at a chosen payload) and is re-armed identically on replay.
	PointHook func(payload int)
	// Checkpoint, when set, makes the sweep crash-safe resumable: every
	// completed point is journaled (durably, atomically) as it finishes,
	// and a point already in the journal is restored instead of re-run.
	// Restored points carry the exact ThroughputResult of the original run
	// — the JSON round trip is lossless — so series, metrics, and bench
	// outputs are byte-identical to an uninterrupted campaign. They carry no
	// telemetry bundle (bundles are not journaled) and a near-zero Wall.
	Checkpoint *Checkpoint
	// EventBudget caps each point's simulated event count (0 = unlimited).
	// A point that exhausts it stalls — the engine reports a drained queue
	// and NTTCP fails with its incomplete-transfer error. It bounds runaway
	// points in unattended campaigns, and doubles as the interruption lever
	// the checkpoint-resume tests kill a sweep mid-campaign with.
	EventBudget uint64
	// Metrics, when true, folds every successful point into a fleet-level
	// metrics accumulator on the result (FCT distribution, fairness,
	// per-class goodput). The fold happens after the runs, in payload input
	// order, so the accumulator is byte-identical for any worker count.
	Metrics bool
	// Progress, when set, is called after each point finishes with the count
	// done so far — the hook behind live sweep status lines. Calls are
	// serialized but may arrive out of payload order when Workers > 1.
	Progress func(done, total int)
}

// DefaultPayloads returns the sweep grid: log-spaced across 128 B – 16 KB
// with extra resolution around the jumbo-frame MSS boundaries where the
// paper's Figure 3 dip lives.
func DefaultPayloads() []int {
	return []int{
		128, 256, 512, 1024, 1448, 2048, 2896, 4096, 5792, 6500,
		7000, 7436, 7800, 8148, 8448, 8700, 8948, 9216, 10240, 12288,
		14336, 16384,
	}
}

// Point is one sweep measurement.
type Point struct {
	Payload int
	tools.ThroughputResult
	// Wall is the host wall-clock time this point's simulation took. It is
	// reporting-only: never folded into deterministic outputs.
	Wall time.Duration
	// Telemetry is the point's instrument bundle when SweepConfig.Telemetry
	// was enabled, nil otherwise.
	Telemetry *telemetry.Bundle
	// Err is the point's contained failure under SkipFailures (nil = ok).
	// Failed points carry no measurement and are excluded from the series.
	Err error
	// CrashBundle is the path of the replayable crash record written for a
	// contained panic (SkipFailures with CrashDir set).
	CrashBundle string
}

// SweepResult is a labeled series plus its raw points.
type SweepResult struct {
	Label  string
	Series stats.Series
	Points []Point
	// Metrics is the fleet-level accumulator over the sweep's successful
	// points (SweepConfig.Metrics only, nil otherwise). Each point
	// contributes one flow record classed by the sweep label; sweeps merge
	// into campaign-level accumulators with telemetry's Merge.
	Metrics *telemetry.MetricsAccumulator
}

// Peak returns the best throughput and the payload it occurred at.
func (r *SweepResult) Peak() (payload int, bw units.Bandwidth) {
	x, y := r.Series.PeakY()
	return int(x), units.Bandwidth(y * 1e9)
}

// Mean returns the average throughput across the sweep.
func (r *SweepResult) Mean() units.Bandwidth {
	return units.Bandwidth(r.Series.MeanY() * 1e9)
}

// MeanOver returns the average throughput for payloads >= lo.
func (r *SweepResult) MeanOver(lo int) units.Bandwidth {
	return units.Bandwidth(r.Series.MeanYOver(float64(lo)) * 1e9)
}

// Run executes the sweep: a fresh testbed per payload point (as the paper
// restarts NTTCP per measurement), reporting Gb/s per payload. Points are
// independent simulations, so Workers > 1 fans them out without changing
// any result row.
func (c SweepConfig) Run() (*SweepResult, error) {
	if c.Count <= 0 {
		c.Count = 3000
	}
	if len(c.Payloads) == 0 {
		c.Payloads = DefaultPayloads()
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * units.Second
	}
	label := c.Tuning.Label()
	runPoint := func(eng *sim.Engine, _ int, payload int) (Point, error) {
		if c.Checkpoint != nil {
			if e, ok := c.Checkpoint.Lookup(label, payload); ok {
				return Point{Payload: payload, ThroughputResult: e.Result}, nil
			}
		}
		start := time.Now()
		eng.Reset(c.Seed)
		if c.EventBudget > 0 {
			eng.LimitEvents(c.EventBudget)
		}
		if c.PointHook != nil {
			c.PointHook(payload)
		}
		pair, err := c.newPairOn(eng)
		if err != nil {
			return Point{}, err
		}
		pt := Point{Payload: payload}
		if c.Telemetry.Enabled {
			name := fmt.Sprintf("%s_p%d", SanitizeName(label), payload)
			pt.Telemetry = AttachTelemetry(pair, name, c.Seed, c.Telemetry)
		}
		r, err := tools.NTTCP(pair, c.Count, payload, c.Timeout)
		if err != nil {
			return Point{}, fmt.Errorf("payload %d: %w", payload, err)
		}
		pt.ThroughputResult = r
		if pt.Telemetry != nil {
			CapturePairEngine(pt.Telemetry, pair)
		}
		if c.Checkpoint != nil {
			// Journal after the point fully completes (telemetry captured):
			// a kill between the run and the Record just re-runs the point.
			err := c.Checkpoint.Record(CheckpointEntry{
				Sweep: label, Payload: payload, Result: r,
				WallMS: float64(time.Since(start).Nanoseconds()) / 1e6,
			})
			if err != nil {
				return Point{}, fmt.Errorf("payload %d: %w", payload, err)
			}
		}
		return pt, nil
	}
	opt := runner.Options[*sim.Engine]{
		Workers:  NormalizeWorkers(c.Workers),
		NewState: newWorkerEngine,
		Progress: c.Progress,
	}
	if c.SkipFailures {
		opt.Retry.Max = c.Retries
	}
	pts, walls, errs := runner.Map(c.Payloads, opt, runPoint)
	if err := runner.FirstErr(errs); err != nil && !c.SkipFailures {
		return nil, err
	}
	for i, err := range errs {
		if err == nil {
			continue
		}
		pts[i] = Point{Payload: c.Payloads[i], Err: err}
		var pe *runner.PanicError
		if c.CrashDir != "" && errors.As(err, &pe) {
			path, werr := c.writeCrashBundle(c.Payloads[i], pe)
			if werr != nil {
				pts[i].Err = fmt.Errorf("%w (crash bundle not written: %v)", err, werr)
			} else {
				pts[i].CrashBundle = path
			}
		}
	}
	for i := range pts {
		pts[i].Wall = walls[i]
		if pts[i].Telemetry != nil {
			pts[i].Telemetry.Wall = walls[i]
		}
	}
	res := &SweepResult{Label: c.Tuning.Label(), Points: pts}
	res.Series.Name = res.Label
	if c.Metrics {
		res.Metrics = telemetry.NewMetricsAccumulator()
	}
	for _, pt := range pts {
		if pt.Err != nil {
			continue
		}
		res.Series.Add(float64(pt.Payload), pt.Throughput.Gbps())
		// Folded here — input order, after the parallel section — so the
		// accumulator never sees worker scheduling and stays byte-identical
		// for any Workers value.
		res.Metrics.RecordFlow(telemetry.FlowRecord{
			Class:       res.Label,
			Bytes:       pt.Bytes,
			FCT:         pt.Elapsed,
			Goodput:     pt.Throughput,
			Retransmits: pt.Retransmits,
		})
	}
	return res, nil
}

// writeCrashBundle records a contained point panic as a replayable bundle.
func (c SweepConfig) writeCrashBundle(payload int, pe *runner.PanicError) (string, error) {
	t := c.Tuning
	b := &CrashBundle{
		Kind:      "sweep-point",
		Seed:      c.Seed,
		Profile:   c.Profile,
		Tuning:    &t,
		Payload:   payload,
		Count:     c.Count,
		ViaSwitch: c.ViaSwitch,
		Timeout:   c.Timeout,
		Panic:     fmt.Sprint(pe.Value),
		Stack:     string(pe.Stack),
	}
	name := fmt.Sprintf("crash_%s_p%d", c.Tuning.Label(), payload)
	return WriteCrashBundle(c.CrashDir, name, b)
}

// NormalizeWorkers maps the experiment-level worker convention (0 or 1 =
// serial, negative = one per CPU) onto runner.Options.Workers (where <= 0
// already means one per CPU).
func NormalizeWorkers(w int) int {
	if w == 0 {
		return 1
	}
	if w < 0 {
		return 0
	}
	return w
}

// newWorkerEngine builds one reusable engine per worker. Seed zero is a
// placeholder: every run Resets the engine to its own seed before building,
// which restores the exact NewEngine(seed) state, so worker count and run
// order can never leak into results.
func newWorkerEngine(int) *sim.Engine { return sim.NewEngine(0) }

func (c SweepConfig) newPairOn(eng *sim.Engine) (*tools.Pair, error) {
	if c.ViaSwitch {
		return ThroughSwitchOn(eng, c.Profile, c.Tuning)
	}
	return BackToBackOn(eng, c.Profile, c.Tuning)
}

// LatencyConfig describes a NetPipe latency sweep (Figures 6, 7).
type LatencyConfig struct {
	Seed      int64
	Profile   Profile
	Tuning    Tuning
	Payloads  []int
	Reps      int
	ViaSwitch bool
}

// DefaultLatencyPayloads mirrors Figure 6's 1–1024 byte range.
func DefaultLatencyPayloads() []int {
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 192, 256, 384, 512, 640, 768, 896, 1024}
}

// Run executes the latency sweep.
func (c LatencyConfig) Run() ([]tools.LatencyPoint, error) {
	if len(c.Payloads) == 0 {
		c.Payloads = DefaultLatencyPayloads()
	}
	if c.Reps <= 0 {
		c.Reps = 20
	}
	t := c.Tuning
	// NetPipe disables Nagle; a ping-pong never benefits from it.
	pair, err := func() (*tools.Pair, error) {
		if c.ViaSwitch {
			return ThroughSwitch(c.Seed, c.Profile, t)
		}
		return BackToBack(c.Seed, c.Profile, t)
	}()
	if err != nil {
		return nil, err
	}
	return tools.NetPipe(pair, c.Payloads, 3, c.Reps, units.Minute)
}

// PktgenRun measures the kernel packet generator on a back-to-back pair
// (§3.5.2's 5.5 Gb/s ceiling measurement).
func PktgenRun(seed int64, p Profile, t Tuning, count int64, ipLen int) (host.PktgenResult, error) {
	pair, err := BackToBack(seed, p, t)
	if err != nil {
		return host.PktgenResult{}, err
	}
	var res host.PktgenResult
	doneFired := false
	pair.SrcHost.Pktgen(0, count, ipLen, pair.DstHost.Addr(), func(r host.PktgenResult) {
		res = r
		doneFired = true
	})
	pair.Eng.RunUntil(pair.Eng.Now() + units.Minute)
	if !doneFired {
		return host.PktgenResult{}, fmt.Errorf("core: pktgen did not finish")
	}
	return res, nil
}

// MultiFlowResult reports an aggregation run.
type MultiFlowResult struct {
	Aggregate units.Bandwidth
	PerFlow   []units.Bandwidth
	Elapsed   units.Time
}

// MultiFlowSpec describes one aggregation run for RunMultiFlows.
type MultiFlowSpec struct {
	Label    string
	Seed     int64
	Profile  Profile
	Tuning   Tuning
	Senders  int
	Kind     SenderKind
	Reverse  bool
	SinkNICs int
	Duration units.Time
}

// RunMultiFlows builds and drives each aggregation spec on a per-worker
// reused engine (Reset to the spec's seed before each build), fanned across
// the worker pool, returning results in input order (0 or 1 workers =
// serial, negative = one per CPU).
func RunMultiFlows(specs []MultiFlowSpec, workers int) ([]MultiFlowResult, error) {
	out, _, errs := runner.Map(specs, runner.Options[*sim.Engine]{
		Workers:  NormalizeWorkers(workers),
		NewState: newWorkerEngine,
	}, func(eng *sim.Engine, _ int, s MultiFlowSpec) (MultiFlowResult, error) {
		nics := s.SinkNICs
		if nics == 0 {
			nics = 1
		}
		eng.Reset(s.Seed)
		m, err := NewMultiFlowNICsOn(eng, s.Profile, s.Tuning,
			s.Senders, s.Kind, s.Reverse, nics)
		if err != nil {
			return MultiFlowResult{}, fmt.Errorf("%s: %w", s.Label, err)
		}
		return RunMultiFlow(m, s.Duration), nil
	})
	if err := runner.FirstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// RunMultiFlow drives every pair simultaneously for the duration and
// reports the aggregate goodput at the receivers.
func RunMultiFlow(m *MultiFlow, duration units.Time) MultiFlowResult {
	received := make([]int64, len(m.Pairs))
	for i, pair := range m.Pairs {
		i := i
		pair.Dst.SetAutoRead(func(n int64) { received[i] += n })
		pair.Src.Send(1<<50, 64*1024, false, nil)
	}
	start := m.Eng.Now()
	m.Eng.RunUntil(start + duration)
	elapsed := m.Eng.Now() - start
	res := MultiFlowResult{Elapsed: elapsed}
	var total int64
	for _, n := range received {
		total += n
		res.PerFlow = append(res.PerFlow, units.Throughput(n, elapsed))
	}
	res.Aggregate = units.Throughput(total, elapsed)
	return res
}

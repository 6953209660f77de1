// Package paper holds the paper's evaluation as data: every experiment
// `sweep` runs (Experiments) and one table of the paper's claims (Claims).
// Each claim names the quantity of an experiment that measures it, the
// paper's value, the accepted band and, where this reproduction departs
// from the paper, a deviation (Deviations). `sweep` prints each
// experiment's claims after its data; internal/core's TestClaims checks
// every claim at `sweep`'s default settings and generates the tables of
// EXPERIMENTS.md and README.md from them.
package paper

import (
	"fmt"
	"io"
	"math"

	"tengig/internal/compare"
	"tengig/internal/core"
	"tengig/internal/host"
	"tengig/internal/netem"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// Settings are what a `sweep` invocation varies. Seed 1 and the zero value
// of everything else are `sweep`'s defaults, which the claims are checked
// at.
type Settings struct {
	Seed int64
	// Full selects the paper-resolution payload grid and write count.
	Full bool
	// Workers fans independent points across a pool (0 or 1 = serial,
	// negative = one per CPU); results are identical for any value.
	Workers int
	// CSV prints throughput and latency series as CSV rows.
	CSV bool
	// Out receives the experiment's printed rows; nil discards them.
	Out io.Writer
	// Sweep runs the figure sweeps (Figures 3–5, §3.4, §3.5.3). `sweep`
	// wraps its campaign options (checkpoint, telemetry, BENCH recording)
	// around core.SweepConfig.Run here; nil runs the config as given.
	Sweep func(core.SweepConfig) (*core.SweepResult, error)
}

// Payloads returns the sweep grid: core.DefaultPayloads, or 128 B to 16 KB
// in 128-byte steps at paper resolution.
func (s Settings) Payloads() []int {
	if !s.Full {
		return core.DefaultPayloads()
	}
	var out []int
	for p := 128; p <= 16384; p += 128 {
		out = append(out, p)
	}
	return out
}

// Count returns the writes per sweep point (the paper used 32768).
func (s Settings) Count() int {
	if s.Full {
		return 32768
	}
	return 3000
}

// Measured holds every quantity the experiments of one run produced, keyed
// "experiment.quantity".
type Measured map[string]float64

// Experiment is one section of `sweep -all`.
type Experiment struct {
	// ID selects it (fig3 is `-fig 3`, table1 is `-table 1`, anything
	// else `-exp ID`) and labels its sweeps in BENCH_sweep.json.
	ID    string
	Title string
	run   func(*env) error
}

// Run prints the experiment's section header and data rows to s.Out and
// records its quantities into m.
func (e Experiment) Run(s Settings, m Measured) error {
	if s.Out == nil {
		s.Out = io.Discard
	}
	en := &env{Settings: s, exp: e.ID, m: m}
	en.printf("== %s ==\n", e.Title)
	return e.run(en)
}

// Experiments lists every experiment in `sweep -all` order.
var Experiments = []Experiment{
	{"fig3", "Figure 3: Throughput of Stock TCP: 1500- vs 9000-byte MTU", figure3},
	{"fig4", "Figure 4: Oversized windows + PCI-X burst + UP kernel", figure4},
	{"fig5", "Figure 5: Cumulative optimizations with non-standard MTUs", figure5},
	{"fig6", "Figure 6: End-to-end latency (5 us interrupt coalescing)", figure6},
	{"fig7", "Figure 7: End-to-end latency without interrupt coalescing", figure7},
	{"fig8", "Figure 8: Ideal vs MSS-allowed window", figure8},
	{"table1", "Table 1: Time to recover from a single packet loss", table1},
	{"ladder", "§3.3 optimization ladder (9000-byte MTU)", ladderAt(9000)},
	{"ladder1500", "§3.3 optimization ladder (1500-byte MTU)", ladderAt(1500)},
	{"wan", "§4: Sunnyvale -> Geneva record run", wanRecord},
	{"multiflow", "§3.5.2: multi-flow aggregation through the FastIron 1500", multiflow},
	{"compare", "§3.5.3: interconnect comparison", comparison},
	{"anecdotes", "§3.4 anecdotal results", anecdotes},
	{"mtu", "MTU sweep (extension): the allocator-block sawtooth", mtuSweep},
	{"tools", "§3.2: Iperf vs NTTCP on the tuned 8160-MTU pair", toolsCompare},
	{"ablations", "Ablations (extension): mechanisms the paper discusses but did not measure", ablations},
}

// env is one experiment's view of a run.
type env struct {
	Settings
	exp string
	m   Measured
}

func (e *env) printf(format string, a ...any) { fmt.Fprintf(e.Out, format, a...) }

// set records quantity name of the running experiment.
func (e *env) set(name string, v float64) { e.m[e.exp+"."+name] = v }

// sweep runs a figure sweep on the settings' grid through Settings.Sweep.
func (e *env) sweep(p host.Profile, t host.Tuning) (*core.SweepResult, error) {
	cfg := e.config(p, t)
	if e.Sweep != nil {
		return e.Sweep(cfg)
	}
	return cfg.Run()
}

// measure runs a sweep on the settings' grid that is not a figure of its
// own (the checks and ablations), so campaign options do not apply.
func (e *env) measure(p host.Profile, t host.Tuning) (*core.SweepResult, error) {
	return e.config(p, t).Run()
}

func (e *env) config(p host.Profile, t host.Tuning) core.SweepConfig {
	return core.SweepConfig{
		Seed: e.Seed, Profile: p, Tuning: t,
		Payloads: e.Payloads(), Count: e.Count(), Workers: e.Workers,
	}
}

// compile compiles spec on a fresh engine seeded with the settings' seed.
func (e *env) compile(spec *topo.Spec) (*topo.Network, error) {
	return topo.Compile(sim.NewEngine(e.Seed), spec, e.Seed)
}

// pair compiles a two-host spec and returns its pair.
func (e *env) pair(spec *topo.Spec) (*tools.Pair, error) {
	net, err := e.compile(spec)
	if err != nil {
		return nil, err
	}
	return net.Pairs[0], nil
}

func peak(res *core.SweepResult) float64 {
	_, p := res.Peak()
	return p.Gbps()
}

func (e *env) series(res *core.SweepResult) {
	if e.CSV {
		e.printf("# %s\nconfig,payload,gbps,snd_load,rcv_load\n", res.Label)
		for _, pt := range res.Points {
			e.printf("%s,%d,%.4f,%.3f,%.3f\n",
				res.Label, pt.Payload, pt.Throughput.Gbps(), pt.SenderLoad, pt.ReceiverLoad)
		}
		e.printf("\n")
		return
	}
	e.printf("# %s\n", res.Label)
	e.printf("%-10s %-12s %-10s %-10s\n", "payload", "Gb/s", "snd-load", "rcv-load")
	for _, pt := range res.Points {
		e.printf("%-10d %-12.3f %-10.2f %-10.2f\n",
			pt.Payload, pt.Throughput.Gbps(), pt.SenderLoad, pt.ReceiverLoad)
	}
	e.printf("peak %.3f Gb/s, mean %.3f Gb/s\n\n", peak(res), res.Mean().Gbps())
}

// figureSweeps runs and prints one PE2650 sweep per tuning and records
// each one's peak and its mean over payloads >= 4096 under the tuning's
// MTU.
func (e *env) figureSweeps(tunings ...host.Tuning) ([]*core.SweepResult, error) {
	var out []*core.SweepResult
	for _, t := range tunings {
		res, err := e.sweep(host.PE2650, t)
		if err != nil {
			return nil, err
		}
		e.series(res)
		key := fmt.Sprint(t.MTU)
		e.set(key+".peak", peak(res))
		e.set(key+".mean4096", res.MeanOver(4096).Gbps())
		out = append(out, res)
	}
	return out, nil
}

func figure3(e *env) error {
	res, err := e.figureSweeps(host.Stock(1500), host.Stock(9000))
	if err != nil {
		return err
	}
	// Figure 3's dip interval at 9000 MTU, payloads 7436–8948.
	lo, hi := math.Inf(1), 0.0
	for _, pt := range res[1].Points {
		if pt.Err == nil && pt.Payload >= 7436 && pt.Payload <= 8948 {
			lo, hi = math.Min(lo, pt.Throughput.Gbps()), math.Max(hi, pt.Throughput.Gbps())
		}
	}
	e.set("9000.dip", lo/hi)
	// The paper quotes the SMP receiver's load per CPU, at 16 KB writes.
	cpus := float64(host.ProfileConfig(host.PE2650, "", 0).CPUs)
	for i, mtu := range []int{1500, 9000} {
		pts := res[i].Points
		e.set(fmt.Sprintf("%d.rcv-cpu", mtu), pts[len(pts)-1].ReceiverLoad/cpus)
	}
	return nil
}

// recordPublished records compare.Published's throughput (Gb/s) and
// latency (µs) under compare.<key>.bw and .lat, so the §3.5.3 claims read
// both sides of each comparison as quantities.
func recordPublished(set func(string, float64)) {
	for _, r := range compare.Published() {
		set(r.Key()+".bw", r.Throughput.Gbps())
		set(r.Key()+".lat", r.Latency.Micros())
	}
}

func figure4(e *env) error {
	_, err := e.figureSweeps(host.Optimized(1500), host.Optimized(9000))
	return err
}

func figure5(e *env) error {
	e.printf("reference lines: GbE %.1f, Myrinet %.1f, QsNet %.1f, 10GbE(PCI-X) %.1f Gb/s\n\n",
		published("GbE", "TCP/IP").TheoreticalMax.Gbps(), published("Myrinet", "GM").TheoreticalMax.Gbps(),
		published("QsNet", "Elan3").TheoreticalMax.Gbps(), compare.TenGbETheoretical.Gbps())
	_, err := e.figureSweeps(host.Optimized(8160), host.Optimized(16000))
	return err
}

// latency runs and prints one Figure 6/7 NetPipe sweep and records its
// 1 B and 1 KB one-way latencies in µs under key.
func (e *env) latency(t host.Tuning, via bool, label, key string) error {
	pts, err := core.LatencyConfig{
		Seed: e.Seed, Profile: host.PE2650, Tuning: t,
		Payloads: core.DefaultLatencyPayloads(), Reps: 20, ViaSwitch: via,
	}.Run()
	if err != nil {
		return err
	}
	if e.CSV {
		e.printf("# %s\npayload,one_way_us\n", label)
		for _, pt := range pts {
			e.printf("%d,%.3f\n", pt.Payload, pt.OneWay.Micros())
		}
	} else {
		e.printf("# %s\n%-10s %s\n", label, "payload", "one-way")
		for _, pt := range pts {
			e.printf("%-10d %v\n", pt.Payload, pt.OneWay)
		}
	}
	e.printf("\n")
	e.set(key+".1B", pts[0].OneWay.Micros())
	e.set(key+".1KB", pts[len(pts)-1].OneWay.Micros())
	return nil
}

func figure6(e *env) error {
	if err := e.latency(host.Optimized(9000), false, "back-to-back", "b2b"); err != nil {
		return err
	}
	return e.latency(host.Optimized(9000), true, "through FastIron 1500", "switch")
}

func figure7(e *env) error {
	return e.latency(host.Optimized(9000).WithoutCoalescing(), false, "back-to-back, coalescing off", "nocoal")
}

func figure8(e *env) error {
	rows := core.WindowAudit()
	if len(rows) < 4 {
		return fmt.Errorf("window audit has %d rows, want 4", len(rows))
	}
	e.printf("%-55s %-10s %-8s %-10s %s\n", "case", "window", "MSS", "usable", "lost")
	for _, r := range rows {
		e.printf("%-55s %-10d %-8d %-10d %.0f%%\n", r.Description, r.Ideal, r.MSS, r.Usable, r.LossPct)
	}
	e.printf("\n")
	e.set("fig8-lost", rows[0].LossPct)
	e.set("lan-segments", float64(rows[1].Usable/rows[1].MSS))
	e.set("advertised", float64(rows[2].Usable))
	e.set("usable", float64(rows[3].Usable))
	return nil
}

func table1(e *env) error {
	rows := core.Table1()
	e.printf("%-20s %-12s %-8s %-8s %s\n", "path", "bandwidth", "RTT", "MSS", "recovery")
	for _, r := range rows {
		e.printf("%-20s %-12v %-8v %-8d %v\n", r.Path, r.BW, r.RTT, r.MSS, r.Recovery)
	}
	e.printf("\n")
	// Keys name path, bandwidth and MSS: gc-10g-1460 is Geneva–Chicago at
	// 10 Gb/s with a 1460-byte MSS.
	paths := map[string]string{"LAN": "lan", "Geneva-Chicago": "gc", "Geneva-Sunnyvale": "gs"}
	for _, r := range rows {
		e.set(fmt.Sprintf("%s-%gg-%d", paths[r.Path], r.BW.Gbps(), r.MSS), r.Recovery.Seconds())
	}
	return nil
}

// ladderAt runs the §3.3 optimization ladder at one MTU, one sweep per
// rung, and records each rung's peak and mean.
func ladderAt(mtu int) func(*env) error {
	return func(e *env) error {
		e.printf("%-18s %-34s %-10s %s\n", "rung", "config", "peak", "mean")
		for i, rung := range core.LadderRungs(mtu) {
			res, err := e.measure(host.PE2650, rung.Tuning)
			if err != nil {
				return err
			}
			e.printf("%-18s %-34s %-10.3f %.3f\n", rung.Name, rung.Tuning.Label(), peak(res), res.Mean().Gbps())
			e.set(fmt.Sprintf("rung%d.peak", i), peak(res))
			e.set(fmt.Sprintf("rung%d.mean", i), res.Mean().Gbps())
		}
		e.printf("\n")
		return nil
	}
}

// wanBuffer3BDP is the counterfactual socket buffer: about three times the
// path's 54 MB bandwidth-delay product.
const wanBuffer3BDP = 3 * 54 * 1024 * 1024

func wanRecord(e *env) error {
	res, err := core.RunWAN(core.WANConfig{Seed: e.Seed, Duration: 15 * units.Second})
	if err != nil {
		return err
	}
	e.printf("sustained:   %v (ceiling %v, efficiency %.1f%%)\n",
		res.Throughput, res.PayloadCeiling, res.Efficiency*100)
	e.printf("RTT:         %v   drops: %d   retransmits: %d\n",
		res.RTT, res.BottleneckDrops, res.Retransmits)
	e.printf("terabyte in: %v\n\n", res.TimeToTerabyte)

	e.printf("-- counterfactual: 3x-BDP socket buffers --\n")
	over, err := core.RunWAN(core.WANConfig{Seed: e.Seed, Duration: 15 * units.Second, SockBuf: wanBuffer3BDP})
	if err != nil {
		return err
	}
	e.printf("sustained:   %v   drops: %d   retransmits: %d   timeouts: %d\n\n",
		over.Throughput, over.BottleneckDrops, over.Retransmits, over.Timeouts)

	e.set("gbps", res.Throughput.Gbps())
	e.set("efficiency", res.Efficiency*100)
	e.set("rtt", res.RTT.Millis())
	e.set("terabyte", res.TimeToTerabyte.Seconds())
	e.set("drops", float64(res.BottleneckDrops))
	e.set("retx", float64(res.Retransmits))
	e.set("over.drops", float64(over.BottleneckDrops))
	e.set("over.retx", float64(over.Retransmits))
	e.set("over/tuned", over.Throughput.Gbps()/res.Throughput.Gbps())
	return nil
}

func multiflow(e *env) error {
	spec := func(label string, reverse bool, nics int) core.MultiFlowSpec {
		return core.MultiFlowSpec{
			Label: label, Seed: e.Seed, Duration: 200 * units.Millisecond,
			Spec: topo.Aggregation(host.PE2650, host.Optimized(9000), 6, reverse, nics),
		}
	}
	results, err := core.RunMultiFlows([]core.MultiFlowSpec{
		spec("rx", false, 1), spec("tx", true, 1), spec("two-nics", false, 2),
	}, e.Workers)
	if err != nil {
		return err
	}
	rx, tx, two := results[0], results[1], results[2]
	e.printf("6 GbE senders -> one 10GbE PE2650:   %v\n\n", rx.Aggregate)
	slowest := math.Inf(1)
	for _, f := range rx.PerFlow {
		slowest = math.Min(slowest, f.Gbps())
	}
	if len(rx.PerFlow) != 6 {
		return fmt.Errorf("aggregation measured %d flows, want 6", len(rx.PerFlow))
	}
	e.set("rx", rx.Aggregate.Gbps())
	e.set("rx.slowest", slowest)
	e.set("tx/rx", tx.Aggregate.Gbps()/rx.Aggregate.Gbps())
	e.set("two/one", two.Aggregate.Gbps()/rx.Aggregate.Gbps())

	// The kernel packet generator: the host's data-movement ceiling.
	pg, err := core.PktgenRun(e.Seed, host.PE2650, host.Optimized(8160), 30000, 8160)
	if err != nil {
		return err
	}
	e.set("pktgen", pg.PayloadRate(8160).Gbps())
	e.set("pktgen.pps", float64(pg.Sent)/pg.Elapsed.Seconds())
	return nil
}

func comparison(e *env) error {
	res, err := e.sweep(host.PE2650, host.Optimized(8160))
	if err != nil {
		return err
	}
	pts, err := core.LatencyConfig{Seed: e.Seed, Profile: host.PE2650,
		Tuning: host.Optimized(9000), Payloads: []int{1}, Reps: 20}.Run()
	if err != nil {
		return err
	}
	_, bw := res.Peak()
	lat := pts[0].OneWay
	rows := compare.Published()
	e.printf("%-10s %-8s %-12s %-10s %s\n", "network", "API", "throughput", "latency", "source")
	e.printf("%-10s %-8s %-12v %-10v %s\n", "10GbE", "TCP/IP", bw, lat, "this reproduction")
	for _, r := range rows {
		e.printf("%-10s %-8s %-12v %-10v %s\n", r.Name, r.API, r.Throughput, r.Latency, r.Source)
	}
	e.printf("\n")
	e.set("bw", bw.Gbps())
	e.set("lat", lat.Micros())
	recordPublished(e.set)

	// The GbE baseline: the same PE2650 pair on e1000-class adapters at
	// their default 20 µs interrupt delay, tuned as Figure 4's 1500 MTU.
	tun := host.Optimized(1500)
	tun.CoalesceDelay = 20 * units.Microsecond
	spec := topo.BackToBack(host.PE2650, tun)
	for i := range spec.Hosts {
		spec.Hosts[i].NIC = topo.NIC1G
	}
	pair, err := e.pair(spec)
	if err != nil {
		return err
	}
	gbe, err := tools.NTTCP(pair, 8192, 16384, units.Minute)
	if err != nil {
		return err
	}
	e.set("gbe", gbe.Throughput.Gbps())
	return nil
}

func anecdotes(e *env) error {
	// §3.4: the E7505 out of the box, with and without timestamps.
	nots, err := e.sweep(host.IntelE7505, host.Stock(9000).WithoutTimestamps())
	if err != nil {
		return err
	}
	ts, err := e.sweep(host.IntelE7505, host.Stock(9000))
	if err != nil {
		return err
	}
	e.set("e7505", peak(nots))
	e.set("e7505.ts", peak(ts))

	// §3.4: timestamps on the PE2650, against Figure 3's stock 9000 MTU.
	pe, err := e.measure(host.PE2650, host.Stock(9000).WithoutTimestamps())
	if err != nil {
		return err
	}
	e.set("pe2650.nots", peak(pe))

	// §3.4: the Itanium-II sinking aggregated GbE traffic.
	net, err := e.compile(topo.Aggregation(host.ItaniumII,
		host.Stock(9000).WithMMRBC(4096).WithSockBuf(256*1024), 10, false, 1))
	if err != nil {
		return err
	}
	e.set("itanium", core.RunMultiFlow(net, 200*units.Millisecond).Aggregate.Gbps())

	// §3.5.2: STREAM on each host, and the PE4600's TCP peak against
	// Figure 4's PE2650.
	for _, p := range []host.Profile{host.PE2650, host.PE4600, host.IntelE7505} {
		pair, err := e.pair(topo.BackToBack(p, host.Optimized(9000)))
		if err != nil {
			return err
		}
		e.set("stream."+string(p), tools.Stream(pair.SrcHost).Gbps())
	}
	pe4600, err := e.measure(host.PE4600, host.Optimized(9000))
	if err != nil {
		return err
	}
	e.set("pe4600", peak(pe4600))
	e.printf("\n")
	return nil
}

func mtuSweep(e *env) error {
	e.printf("throughput climbs with MTU, then dips past each power-of-2 block boundary\n")
	mtus := []int{1500, 3000, 4000, 4200, 6000, 8000, 8160, 8400, 9000, 12000, 16000}
	pts, err := core.MTUSweep(e.Seed, host.PE2650, mtus, 16384, e.Count(), e.Workers)
	if err != nil {
		return err
	}
	e.printf("%-8s %-10s %-10s %s\n", "MTU", "block", "peak", "mean")
	for _, p := range pts {
		e.printf("%-8d %-10d %-10.3f %.3f\n", p.MTU, p.BlockSize, p.Peak.Gbps(), p.Mean.Gbps())
		e.set(fmt.Sprintf("%d", p.MTU), p.Peak.Gbps())
		e.set(fmt.Sprintf("%d.block", p.MTU), float64(p.BlockSize))
	}
	e.printf("\n")
	return nil
}

func toolsCompare(e *env) error {
	spec := topo.BackToBack(host.PE2650, host.Optimized(8160))
	pn, err := e.pair(spec)
	if err != nil {
		return err
	}
	rn, err := tools.NTTCP(pn, 8192, 16384, units.Minute)
	if err != nil {
		return err
	}
	pi, err := e.pair(spec)
	if err != nil {
		return err
	}
	ri, err := tools.Iperf(pi, 100*units.Millisecond)
	if err != nil {
		return err
	}
	e.printf("NTTCP, 8192 x 16384 B writes: %v\n", rn.Throughput)
	e.printf("Iperf, 100 ms:                %v\n\n", ri.Throughput)
	e.set("iperf/nttcp", ri.Throughput.Gbps()/rn.Throughput.Gbps())
	return nil
}

// sides names an ablation's baseline (off) and variant (on).
var sides = [2]string{"off", "on"}

func ablations(e *env) error {
	// Each pair of tunings is swept once and read four ways. The loads are
	// the receiver's at the smallest payload, where the one-CPU kernel is
	// not yet saturated, and the sender's at the largest, where TSO has the
	// most segments to offload.
	pairs := []struct {
		key     string
		off, on host.Tuning
	}{
		{"napi", host.Optimized(8160), host.Optimized(8160).WithNAPI()},
		{"tso", host.Optimized(8160), host.Optimized(8160).WithTSO()},
		{"fractional", host.Stock(9000).WithMMRBC(4096).WithUP(),
			host.Stock(9000).WithMMRBC(4096).WithUP().WithFractionalWindows()},
		{"irq-rr", host.Stock(1500).WithMMRBC(4096), host.Stock(1500).WithMMRBC(4096).WithIRQRoundRobin()},
	}
	for _, p := range pairs {
		for side, t := range [2]host.Tuning{p.off, p.on} {
			res, err := e.measure(host.PE2650, t)
			if err != nil {
				return err
			}
			first, last := res.Points[0], res.Points[len(res.Points)-1]
			e.set(p.key+".peak."+sides[side], peak(res))
			e.set(p.key+".mean."+sides[side], res.Mean().Gbps())
			e.set(p.key+".rcv-load."+sides[side], first.ReceiverLoad)
			e.set(p.key+".snd-load."+sides[side], last.SenderLoad)
		}
	}
	// MMRBC sensitivity across the register's range, stock 9000 MTU.
	for _, mmrbc := range []int{512, 1024, 2048, 4096} {
		res, err := e.measure(host.PE2650, host.Stock(9000).WithMMRBC(mmrbc))
		if err != nil {
			return err
		}
		e.set(fmt.Sprintf("mmrbc%d", mmrbc), peak(res))
	}
	// Interrupt-coalescing delay against 1-byte one-way latency.
	for _, us := range []int{0, 5, 20} {
		t := host.Optimized(9000)
		t.CoalesceDelay = units.Time(us) * units.Microsecond
		pts, err := core.LatencyConfig{Seed: e.Seed, Profile: host.PE2650, Tuning: t,
			Payloads: []int{1}, Reps: 20}.Run()
		if err != nil {
			return err
		}
		e.set(fmt.Sprintf("coalesce%d", us), pts[0].OneWay.Micros())
	}
	// NewReno (off) against SACK (on) under 0.5% random loss on the data
	// path.
	for side, t := range [2]host.Tuning{host.Optimized(9000).WithoutSACK(), host.Optimized(9000)} {
		spec := topo.BackToBack(host.PE2650, t)
		spec.Links[0].Faults = &topo.LinkFaults{AtoB: netem.Script{{Fault: netem.Fault{LossProb: 0.005}}}}
		p, err := e.pair(spec)
		if err != nil {
			return err
		}
		r, err := tools.NTTCP(p, 8000, 8948, 10*units.Minute)
		if err != nil {
			return err
		}
		e.set("sack.gbps."+sides[side], r.Throughput.Gbps())
	}
	return nil
}

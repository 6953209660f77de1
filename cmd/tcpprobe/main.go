// Command tcpprobe runs one instrumented transfer and reports the
// connection's internal state over time — the simulator's analog of the
// tcp_probe module and the Web100 kernel instruments the paper uses to
// watch cwnd, ssthresh, and the advertised window evolve (§3.5.1, §4).
//
// The sampler snapshots both endpoints on a fixed simulated-time cadence;
// discrete stack events (RTO, fast retransmit, persist probes, delayed
// acks, SWS clamps) land in a structured event log. Everything exports to
// JSONL and CSV for plotting.
//
// Usage:
//
//	tcpprobe [-profile pe2650] [-mtu 9000] [-stock] [-count 3000] [-payload 8948]
//	         [-interval 50us] [-loss 0.0] [-drop-nth 0] [-o DIR] [-events N]
//
// With -loss or -drop-nth the crossover cable drops packets, so the trace
// shows recovery episodes: cwnd collapse, ssthresh reset, and the slow
// climb back — Table 1's AIMD dynamics made visible.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"tengig/internal/core"
	"tengig/internal/host"
	"tengig/internal/netem"
	"tengig/internal/prof"
	"tengig/internal/telemetry"
	"tengig/internal/units"
)

var (
	profile  = flag.String("profile", "pe2650", "host profile")
	mtu      = flag.Int("mtu", 9000, "device MTU")
	stock    = flag.Bool("stock", false, "use the stock configuration")
	count    = flag.Int("count", 3000, "application writes")
	payload  = flag.Int("payload", 8948, "bytes per write")
	seed     = flag.Int64("seed", 1, "simulation seed")
	interval = flag.Duration("interval", 50*time.Microsecond, "instrument sampling cadence (simulated time)")
	loss     = flag.Float64("loss", 0, "independent per-packet loss probability on the data path")
	dropNth  = flag.Int64("drop-nth", 0, "drop exactly the nth data packet (Table 1's single loss)")
	outDir   = flag.String("o", "", "write <name>.jsonl and <name>.csv into this directory")
	events   = flag.Int("events", 8, "recent events to print per connection")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProf  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
)

func main() { os.Exit(run()) }

// run is the command: it returns the exit code instead of exiting, so the
// profiles it started are written on every path.
func run() int {
	log.SetFlags(0)
	flag.Parse()
	stopProfiles := prof.Start(*cpuProf, *memProf)
	defer stopProfiles()
	if err := probe(); err != nil {
		log.Printf("tcpprobe: %v", err)
		return 1
	}
	return 0
}

// probe runs the instrumented transfer the flags describe and prints its
// report.
func probe() error {
	hostProfile, err := host.ParseProfile(*profile)
	if err != nil {
		return err
	}
	if err := host.ValidateMTU(*mtu); err != nil {
		return err
	}
	if err := host.ValidateTransfer(*count, *payload); err != nil {
		return err
	}
	data := netem.Script{{Fault: netem.Fault{LossProb: *loss, DropNth: *dropNth}}}
	if err := data.Validate(); err != nil {
		return fmt.Errorf("-loss/-drop-nth: %w", err)
	}

	tun := host.Optimized(*mtu)
	if *stock {
		tun = host.Stock(*mtu)
	}
	cfg := core.ProbeConfig{
		Seed:    *seed,
		Profile: hostProfile,
		Tuning:  tun,
		Count:   *count,
		Payload: *payload,
		Telemetry: telemetry.Options{
			Enabled:        true,
			SampleInterval: units.Time(interval.Nanoseconds()) * units.Nanosecond,
		},
	}
	if data[0].Fault != (netem.Fault{}) {
		cfg.Data = data
	}

	start := time.Now()
	res, err := core.ProbeRun(cfg)
	if err != nil {
		return err
	}
	res.Bundle.Wall = time.Since(start)

	fmt.Printf("transfer: %v over %v (%s)\n\n",
		res.Transfer.Throughput, res.Transfer.Elapsed, tun.Label())
	fmt.Print(res.Bundle.Summary())

	if rec := res.Bundle.Lookup(res.SenderConn); rec != nil && *events > 0 {
		evs := rec.Events()
		if len(evs) > *events {
			evs = evs[len(evs)-*events:]
		}
		if len(evs) > 0 {
			fmt.Printf("\nlast %d events (%s):\n", len(evs), res.SenderConn)
			for _, ev := range evs {
				fmt.Printf("  %-12v %-16s seq=%-12d cwnd=%-6d ssthresh=%-10d aux=%d\n",
					ev.At, ev.Kind, ev.Seq, ev.Cwnd, ev.Ssthresh, ev.Aux)
			}
		}
	}

	if *outDir != "" {
		if err := core.WriteBundle(*outDir, res.Bundle); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s/%s.{jsonl,csv}\n", *outDir, core.SanitizeName(res.Bundle.Name))
	}
	return nil
}

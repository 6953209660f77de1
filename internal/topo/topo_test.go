package topo_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tengig/internal/audit"
	"tengig/internal/host"
	"tengig/internal/netem"
	"tengig/internal/phys"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/topo"
	"tengig/internal/units"
)

func TestTuningResolve(t *testing.T) {
	// Nil spec is stock jumbo frames.
	var nilSpec *topo.TuningSpec
	got, err := nilSpec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got != host.Stock(9000) {
		t.Errorf("nil tuning = %+v, want Stock(9000)", got)
	}
	// The paper-baseline file's knobs reproduce Optimized(9000) exactly.
	ts := &topo.TuningSpec{MTU: 9000, MMRBC: 4096, Uniprocessor: true, SockBuf: 262144}
	got, err = ts.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got != host.Optimized(9000) {
		t.Errorf("resolved = %+v, want Optimized(9000) = %+v", got, host.Optimized(9000))
	}
	// Pointer knobs distinguish absent from off.
	off := false
	zero := 0.0
	ts = &topo.TuningSpec{MTU: 1500, Timestamps: &off, CoalesceUS: &zero}
	got, err = ts.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := host.Stock(1500).WithoutTimestamps().WithoutCoalescing()
	if got != want {
		t.Errorf("resolved = %+v, want %+v", got, want)
	}
	// Bad MTU surfaces as an error, not a panic.
	if _, err := (&topo.TuningSpec{MTU: 17}).Resolve(); err == nil {
		t.Error("MTU 17 accepted")
	}
}

// TestTuningOfInverse: every tuning the §3.3 ladder can reach survives the
// round trip through its spec, so a spec can carry any Tuning.
func TestTuningOfInverse(t *testing.T) {
	rungs := []struct {
		name string
		f    func(host.Tuning) host.Tuning
	}{
		{"as-is", func(t host.Tuning) host.Tuning { return t }},
		{"WithMMRBC", func(t host.Tuning) host.Tuning { return t.WithMMRBC(2048) }},
		{"WithUP", host.Tuning.WithUP},
		{"WithSockBuf", func(t host.Tuning) host.Tuning { return t.WithSockBuf(128 * 1024) }},
		{"WithMTU", func(t host.Tuning) host.Tuning { return t.WithMTU(8160) }},
		{"WithoutTimestamps", host.Tuning.WithoutTimestamps},
		{"WithoutCoalescing", host.Tuning.WithoutCoalescing},
		{"WithWindowScale", func(t host.Tuning) host.Tuning { return t.WithWindowScale(32 << 20) }},
		{"WithNAPI", host.Tuning.WithNAPI},
		{"WithoutSACK", host.Tuning.WithoutSACK},
		{"WithFractionalWindows", host.Tuning.WithFractionalWindows},
		{"WithRcvMSSOwn", host.Tuning.WithRcvMSSOwn},
		{"WithIRQRoundRobin", host.Tuning.WithIRQRoundRobin},
		{"WithTSO", host.Tuning.WithTSO},
	}
	for _, base := range []struct {
		name string
		f    func(int) host.Tuning
	}{{"Stock", host.Stock}, {"Optimized", host.Optimized}} {
		for _, mtu := range []int{1500, 8160, 9000, 16000} {
			for _, r := range rungs {
				want := r.f(base.f(mtu))
				got, err := topo.TuningOf(want).Resolve()
				if err != nil {
					t.Fatalf("%s(%d).%s: %v", base.name, mtu, r.name, err)
				}
				if got != want {
					t.Errorf("%s(%d).%s: Resolve(TuningOf(t)) = %+v, want %+v", base.name, mtu, r.name, got, want)
				}
			}
		}
	}
}

// invalidSpecs enumerates malformed topologies and the error text each must
// produce.
func TestValidation(t *testing.T) {
	base := func() string {
		return `{
			"name": "v",
			"hosts": [{"name": "a"}, {"name": "b"}],
			"switches": [{"name": "sw", "preset": "fastiron1500"}],
			"links": [{"a": "a", "b": "sw"}, {"a": "b", "b": "sw"}],
			"flows": [{"src": "a", "dst": "b"}]
		}`
	}
	cases := []struct {
		name string
		json string
		want string
	}{
		{"ok", base(), ""},
		{"no-name", `{"hosts":[{"name":"a"}]}`, "no name"},
		{"no-hosts", `{"name":"x","hosts":[]}`, "no hosts"},
		{"dup-node", `{"name":"x","hosts":[{"name":"a"},{"name":"a"}]}`, "duplicate node"},
		{"bad-profile", `{"name":"x","hosts":[{"name":"a","profile":"cray"}]}`, "unknown profile"},
		{"bad-nic", `{"name":"x","hosts":[{"name":"a","nic":"100g"}]}`, "unknown NIC"},
		// A host-host link is a crossover cable (Figure 2(a)).
		{"host-host-link", `{"name":"x","hosts":[{"name":"a"},{"name":"b"}],
			"links":[{"a":"a","b":"b"}],"flows":[{"src":"a","dst":"b"}]}`, ""},
		{"crossover-1g-default", `{"name":"x","hosts":[{"name":"a","nic":"1g"},{"name":"b"}],
			"links":[{"a":"a","b":"b"}],"flows":[{"src":"b","dst":"a"}]}`, ""},
		{"host-two-links", `{"name":"x","hosts":[{"name":"a"},{"name":"b"}],
			"switches":[{"name":"sw","preset":"fastiron1500"}],
			"links":[{"a":"a","b":"b"},{"a":"a","b":"sw"}]}`, "has 2 links"},
		{"unknown-endpoint", `{"name":"x","hosts":[{"name":"a"}],
			"links":[{"a":"a","b":"ghost"}]}`, "unknown endpoint"},
		{"unlinked-host", `{"name":"x","hosts":[{"name":"a"},{"name":"b"}],
			"switches":[{"name":"sw","preset":"fastiron1500"}],
			"links":[{"a":"a","b":"sw"}]}`, "has no link"},
		{"bad-preset", `{"name":"x","hosts":[{"name":"a"}],
			"switches":[{"name":"sw","preset":"catalyst"}],
			"links":[{"a":"a","b":"sw"}]}`, "unknown preset"},
		{"route-both", `{"name":"x","hosts":[{"name":"a"},{"name":"b"}],
			"switches":[{"name":"sw","preset":"fastiron1500"}],
			"links":[{"a":"a","b":"sw"},{"a":"b","b":"sw"}],
			"routes":[{"switch":"sw","dst":"a","via":"a","port":0}]}`, "exactly one"},
		{"flow-self", `{"name":"x","hosts":[{"name":"a"},{"name":"b"}],
			"switches":[{"name":"sw","preset":"fastiron1500"}],
			"links":[{"a":"a","b":"sw"},{"a":"b","b":"sw"}],
			"flows":[{"src":"a","dst":"a"}]}`, "src and dst"},
		{"bad-fault", `{"name":"x","hosts":[{"name":"a"},{"name":"b"}],
			"switches":[{"name":"sw","preset":"fastiron1500"}],
			"links":[{"a":"a","b":"sw","faults":{"a_to_b":[{"at":0,"fault":{"loss_prob":1.5}}]}},
			         {"a":"b","b":"sw"}]}`, "outside [0,1]"},
		// Each of these used to panic a constructor during compile.
		{"addr-range", `{"name":"x","hosts":[{"name":"a","addr":70000}]}`, "outside 1..65535"},
		{"negative-sockbuf", `{"name":"x","hosts":[{"name":"a","tuning":{"sockbuf":-5}}]}`, "negative mmrbc, sockbuf"},
		{"coalesce-overflow", `{"name":"x","tuning":{"coalesce_us":9e12},"hosts":[{"name":"a"}]}`, "coalesce_us"},
	}
	// Valid cases must compile; these also pin their first link's default
	// line rate in Gb/s.
	rates := map[string]float64{"host-host-link": 10, "crossover-1g-default": 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := topo.Parse([]byte(tc.json))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				eng := sim.NewEngine(1)
				net, err := topo.Compile(eng, spec, 1)
				if err != nil {
					t.Fatalf("valid spec does not compile: %v", err)
				}
				if gbps := rates[tc.name]; gbps != 0 {
					rate := units.Bandwidth(gbps * float64(units.GbitPerSecond))
					want := phys.NewPort(eng, "ref", rate, 0, phys.EthernetFraming{}).Rate()
					if got := net.Links()[0].AtoB.Rate(); got != want {
						t.Errorf("link rate %v, want %v", got, want)
					}
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestInvalidRoutePortSurfacesError(t *testing.T) {
	// An explicit route to an out-of-range port must come back as a
	// compile error carrying the fabric diagnostic — the bug this layer's
	// Route used to panic on.
	spec, err := topo.Parse([]byte(`{
		"name": "badport",
		"hosts": [{"name": "a"}, {"name": "b"}],
		"switches": [{"name": "sw", "preset": "fastiron1500"}],
		"links": [{"a": "a", "b": "sw"}, {"a": "b", "b": "sw"}],
		"routes": [{"switch": "sw", "dst": "a", "port": 9}]
	}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = topo.Compile(sim.NewEngine(1), spec, 1)
	if err == nil {
		t.Fatal("compile accepted a route to port 9 of a 2-port switch")
	}
	if !strings.Contains(err.Error(), "invalid port") {
		t.Errorf("error %q lacks the fabric diagnostic", err)
	}
}

func TestNoPathFlowRejected(t *testing.T) {
	// Two disconnected islands: a flow across them must fail at compile.
	spec, err := topo.Parse([]byte(`{
		"name": "islands",
		"hosts": [{"name": "a"}, {"name": "b"}],
		"switches": [{"name": "s1", "preset": "fastiron1500"},
		             {"name": "s2", "preset": "fastiron1500"}],
		"links": [{"a": "a", "b": "s1"}, {"a": "b", "b": "s2"}],
		"flows": [{"src": "a", "dst": "b"}]
	}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err = topo.Compile(sim.NewEngine(1), spec, 1); err == nil ||
		!strings.Contains(err.Error(), "no path") {
		t.Fatalf("compile error = %v, want no-path", err)
	}
}

func TestMultiHopFatTree(t *testing.T) {
	spec, err := topo.Load("../../examples/topologies/fattree-pod.json")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	net, err := topo.Compile(sim.NewEngine(3), spec, 3)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := net.RunFlows(10 * units.Minute)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, r := range res {
		if r.Bytes == 0 || r.Throughput == 0 {
			t.Errorf("flow %s->%s moved no data", r.Src, r.Dst)
		}
	}
	// Cross-edge flows traverse edge -> agg -> edge: every switch on the
	// shortest-path plan forwards traffic, and the explicit route pin keeps
	// h3's traffic on agg1 instead of the BFS tie-break choice agg0.
	for _, name := range []string{"edge0", "edge1", "agg0", "agg1"} {
		if net.Switch(name).Stats.Forwarded == 0 {
			t.Errorf("switch %s forwarded nothing", name)
		}
	}
	var agg1ToEdge1 int64
	for _, ps := range net.Switch("agg1").PortStats() {
		if ps.Link == "edge1-agg1/agg1>edge1" {
			agg1ToEdge1 = ps.Forwarded
		}
	}
	if agg1ToEdge1 == 0 {
		t.Error("explicit route via agg1 carried no h3 traffic")
	}
	// No loss on an uncongested fabric.
	for _, fc := range net.FabricCounters() {
		if fc.NoRoute != 0 || fc.TTLDrops != 0 {
			t.Errorf("switch %s: no-route %d, ttl-drops %d", fc.Node, fc.NoRoute, fc.TTLDrops)
		}
	}
}

// TestStarAuditCleanUnderFaults compiles the 17-host Beowulf star with
// scripted faults spliced onto several sender links, runs all 16 aggregated
// flows with the full invariant auditor attached, and requires a clean
// audit: every packet drawn from every pool released exactly once (drops at
// the congested sink port and netem losses included), streams intact.
func TestStarAuditCleanUnderFaults(t *testing.T) {
	spec, err := topo.Load("../../examples/topologies/beowulf-star.json")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// Faults arm at >= 1 ms, after every handshake: bursty loss on n01's
	// link, corruption+duplication on n02's, reordering on n03's uplink.
	fault := func(f netem.Fault) *topo.LinkFaults {
		return &topo.LinkFaults{AtoB: netem.Script{{At: units.Millisecond, Fault: f}}}
	}
	for i := range spec.Links {
		switch spec.Links[i].A {
		case "n01":
			spec.Links[i].Faults = fault(netem.Fault{
				GE: netem.GEConfig{Enabled: true, PGoodBad: 0.02, PBadGood: 0.3, LossBad: 0.5},
			})
		case "n02":
			spec.Links[i].Faults = fault(netem.Fault{CorruptProb: 0.01, DupProb: 0.01})
		case "n03":
			spec.Links[i].Faults = fault(netem.Fault{ReorderProb: 0.02, ReorderDelay: 50 * units.Microsecond})
		}
	}
	const seed = 42
	eng := sim.NewEngine(seed)
	net, err := topo.Compile(eng, spec, seed)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ims, names := net.Impairs()
	if len(ims) != 3 {
		t.Fatalf("created %d netem stages (%v), want 3", len(ims), names)
	}

	aud := audit.New(eng)
	for _, h := range spec.Hosts {
		aud.WatchHost(h.Name, net.Host(h.Name))
	}
	for i, p := range net.Pairs {
		aud.WatchConn(p.Src.Conn)
		aud.WatchConn(p.Dst.Conn)
		aud.WatchStream(fmt.Sprintf("flow%d", i+1), p.Src.Conn, p.Dst.Conn)
	}
	for _, im := range ims {
		aud.WatchNetem(im)
	}
	aud.Start(units.Millisecond)

	res, err := net.RunFlows(30 * units.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	aud.Stop()
	for eng.Step() {
	}
	if vs := aud.Finish(true); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("violation: %v", v)
		}
	}
	// The impaired links actually did something.
	var dropped, corrupted, duplicated int64
	for _, im := range ims {
		dropped += im.Dropped()
		corrupted += im.Corrupted()
		duplicated += im.Duplicated()
	}
	if dropped == 0 && corrupted == 0 && duplicated == 0 {
		t.Error("fault scripts injected nothing")
	}
	if agg := topo.Aggregate(res); agg == 0 {
		t.Error("aggregate throughput is zero")
	}
}

func TestExampleTopologiesCompile(t *testing.T) {
	// Every shipped example must load and compile (flows connected). The
	// full transfers are exercised by CI's smoke step and the tests above.
	for _, f := range []string{"paper-baseline", "beowulf-star", "fattree-pod", "torus-3d"} {
		t.Run(f, func(t *testing.T) {
			spec, err := topo.Load("../../examples/topologies/" + f + ".json")
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			net, err := topo.Compile(sim.NewEngine(1), spec, 1)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if len(net.Pairs) != len(spec.Flows) {
				t.Errorf("connected %d flows, want %d", len(net.Pairs), len(spec.Flows))
			}
		})
	}
}

func TestFabricTelemetryRoundTrip(t *testing.T) {
	// Fabric counters survive the JSONL export/parse cycle, and bundles
	// without fabric sections export not a byte differently than before the
	// record type existed (the golden digests in internal/core prove the
	// latter at full scale; this is the unit-level check).
	spec, err := topo.Load("../../examples/topologies/paper-baseline.json")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	eng := sim.NewEngine(5)
	net, err := topo.Compile(eng, spec, 5)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	b := net.AttachTelemetry("rt", 5, telemetry.Options{Enabled: true})
	if _, err := net.RunFlows(10 * units.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	b.CaptureEngine(eng.Executed, eng.HighWater)
	net.CaptureFabric(b)
	if len(b.Fabric) != 1 {
		t.Fatalf("captured %d fabric sections, want 1", len(b.Fabric))
	}
	parsed, err := telemetry.ParseJSONL(b.ExportJSONL())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(parsed.Fabric) != 1 {
		t.Fatalf("parsed %d fabric sections, want 1", len(parsed.Fabric))
	}
	got, want := parsed.Fabric[0], b.Fabric[0]
	if got.Node != want.Node || got.Forwarded != want.Forwarded ||
		got.Dropped != want.Dropped || len(got.Ports) != len(want.Ports) {
		t.Errorf("fabric round-trip: got %+v, want %+v", got, want)
	}
	for i := range got.Ports {
		if got.Ports[i] != want.Ports[i] {
			t.Errorf("port %d round-trip: got %+v, want %+v", i, got.Ports[i], want.Ports[i])
		}
	}
}

// unitOverflowCases are two-host, one-switch specs with one field whose unit
// conversion overflows int64 or rounds a positive rate to 0 b/s. Each used
// to panic deep in construction (sim: pipe with non-positive rate, phys:
// negative propagation delay, fabric: negative latency, fabric: negative
// queue capacity).
var unitOverflowCases = []struct {
	field      string
	link, node string // JSON members spliced into the first link / the switch
}{
	{field: "rate_gbps", link: `, "rate_gbps": 1e-12`},
	{field: "prop_ns", link: `, "prop_ns": 1e300`},
	{field: "latency_ns", node: `, "latency_ns": 1e300`},
	{field: "queue_kb", link: `, "queue_kb": 9000000000000000000`},
}

func unitOverflowSpec(link, node string) []byte {
	return []byte(`{"name": "overflow", "hosts": [{"name": "a"}, {"name": "b"}],
		"switches": [{"name": "sw"` + node + `}],
		"links": [{"a": "a", "b": "sw"` + link + `}, {"a": "b", "b": "sw"}],
		"flows": [{"src": "a", "dst": "b"}]}`)
}

// TestValidateUnitOverflow: Validate rejects each unit-overflow input with
// an error naming the field, so no binary reaches the panicking constructor.
func TestValidateUnitOverflow(t *testing.T) {
	if _, err := topo.Parse(unitOverflowSpec("", "")); err != nil {
		t.Fatalf("unmodified spec rejected: %v", err)
	}
	for _, c := range unitOverflowCases {
		t.Run(c.field, func(t *testing.T) {
			_, err := topo.Parse(unitOverflowSpec(c.link, c.node))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Errorf("error %q does not name %s", err, c.field)
			}
		})
	}
}

// FuzzParseCompile: no topology file may panic the compiler. Parse either
// rejects the input, or the spec compiles — or fails with an error — under
// an event budget that bounds runaway handshakes. The corpus seeds are the
// shipped example topologies and the unit-overflow inputs; `go test -fuzz
// FuzzParseCompile ./internal/topo` explores further.
func FuzzParseCompile(f *testing.F) {
	files, err := filepath.Glob("../../examples/topologies/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example topologies found: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, c := range unitOverflowCases {
		f.Add(unitOverflowSpec(c.link, c.node))
	}
	// A faulted crossover: both directions scripted, one with drop_nth.
	f.Add([]byte(`{"name":"x","hosts":[{"name":"a"},{"name":"b","nic":"1g"}],
		"links":[{"a":"a","b":"b","faults":{
			"a_to_b":[{"at":0,"fault":{"drop_nth":3,"loss_prob":0.01}}],
			"b_to_a":[{"at":1000,"fault":{"dup_prob":0.5}},{"at":2000000,"fault":{}}]}}],
		"flows":[{"src":"a","dst":"b","count":4,"payload":1000}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := topo.Parse(data)
		if err != nil {
			return
		}
		eng := sim.NewEngine(1)
		eng.LimitEvents(1 << 20)
		_, _ = topo.Compile(eng, s, 1)
	})
}

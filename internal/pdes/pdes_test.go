package pdes

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tengig/internal/netem"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/topo"
	"tengig/internal/units"
)

const examplesDir = "../../examples/topologies"

func loadSpec(t *testing.T, name string) *topo.Spec {
	t.Helper()
	s, err := topo.Load(filepath.Join(examplesDir, name))
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return s
}

// runShards runs spec at the given shard count with telemetry and metrics
// on, as New sets the runner up.
func runShards(t *testing.T, spec *topo.Spec, shards int) *Result {
	t.Helper()
	return runShape(t, spec, shards, shapes[1])
}

// shape is one of the two subset shapes a shard can compile.
type shape struct {
	name  string
	whole bool // every shard compiles the whole spec
}

// shapes are both subset shapes, each a production path. "chan-sparse" runs
// the subsets New builds and requires them narrow, so a silent fallback to
// the whole spec fails the test. "chan-full" forces every shard onto the
// whole spec, the fallback New takes when narrow subsets cannot be proven
// exact, so the fallback stays pinned on every shipped topology and not only
// on the specs that trigger it. The "chan-" prefix names the window driver,
// the channel barrier.
var shapes = []shape{
	{"chan-full", true},
	{"chan-sparse", false},
}

// runShape runs spec at the given shard count on the given subset shape,
// with telemetry and metrics on.
func runShape(t *testing.T, spec *topo.Spec, shards int, sh shape) *Result {
	t.Helper()
	return runOpts(t, spec, Options{
		Shards:    shards,
		Seed:      42,
		Telemetry: &telemetry.Options{Enabled: true},
		Metrics:   true,
	}, sh)
}

// runOpts runs spec under opts on the given subset shape.
func runOpts(t *testing.T, spec *topo.Spec, opts Options, sh shape) *Result {
	t.Helper()
	shards := opts.Shards
	r, err := New(spec, opts)
	if err != nil {
		t.Fatalf("%s: New(shards=%d): %v", spec.Name, shards, err)
	}
	if got := r.Replica(); got != ReplicaSparse {
		t.Fatalf("%s: runner compiles %v subsets (fallback: %v)", spec.Name, got, r.SparseFallback())
	}
	if sh.whole {
		for i := range r.subs {
			r.subs[i] = nil
		}
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("%s: Run(shards=%d, %s): %v", spec.Name, shards, sh.name, err)
	}
	return res
}

// requireSame fails t unless res is byte-identical to the 1-shard base:
// flow results, fabric counters, engine counters, and the telemetry JSONL
// (by SHA-256) and CSV exports.
func requireSame(t *testing.T, base, res *Result, shards int) {
	t.Helper()
	if !reflect.DeepEqual(res.Flows, base.Flows) {
		t.Errorf("flow results diverged:\n 1 shard: %+v\n%d shards: %+v",
			base.Flows, shards, res.Flows)
	}
	if !reflect.DeepEqual(res.Fabric, base.Fabric) {
		t.Errorf("fabric counters diverged")
	}
	if res.Events != base.Events {
		t.Errorf("events: %d shards executed %d, 1 shard %d", shards, res.Events, base.Events)
	}
	if res.HighWater != base.HighWater {
		t.Errorf("high-water: %d shards %d, 1 shard %d", shards, res.HighWater, base.HighWater)
	}
	baseSum, gotSum := sha256.Sum256(base.Bundle.ExportJSONL()), sha256.Sum256(res.Bundle.ExportJSONL())
	if gotSum != baseSum {
		t.Errorf("telemetry JSONL diverged (sha256 %x vs %x)", gotSum, baseSum)
	}
	if got := res.Bundle.ExportCSV(); string(got) != string(base.Bundle.ExportCSV()) {
		t.Errorf("telemetry CSV diverged")
	}
}

// TestShardedEquivalence is the crown jewel: for every shipped example
// topology, every shard count, and both subset shapes, the sharded run's
// telemetry bundle (connection instruments, engine counters, fabric
// counters, fleet metrics — the full JSONL and CSV exports), flow results,
// and fabric counters must be byte-identical to the 1-shard run.
//
// It also runs each topology with telemetry off on the subsets New builds.
// Without the sampler's timer on every connection a shard's queue can run
// dry between windows, so the window loop rests on the shards' exact
// next-event reports alone. Flows, fabric counters and Events must match
// the telemetry-off 1-shard run, and flows and fabric counters the
// telemetry-on run; Events differ from the latter by the sampler's own
// events.
func TestShardedEquivalence(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(examplesDir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example topologies found: %v", err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			spec := loadSpec(t, filepath.Base(file))
			base := runShards(t, spec, 1)
			plain := func(t *testing.T, shards int) *Result {
				t.Helper()
				return runOpts(t, spec, Options{Shards: shards, Seed: 42}, shapes[1])
			}
			plainBase := plain(t, 1)
			maxShards := 4
			if n := len(spec.Hosts) + len(spec.Switches); n < maxShards {
				maxShards = n
			}
			for shards := 2; shards <= maxShards; shards *= 2 {
				for _, sh := range shapes {
					sh := sh
					t.Run(fmt.Sprintf("shards=%d/%s", shards, sh.name), func(t *testing.T) {
						res := runShape(t, spec, shards, sh)
						if len(res.Plan.CutLinks) == 0 {
							t.Fatalf("partition into %d shards cut no links", shards)
						}
						requireSame(t, base, res, shards)
					})
				}
				t.Run(fmt.Sprintf("shards=%d/telemetry-off", shards), func(t *testing.T) {
					res := plain(t, shards)
					if !reflect.DeepEqual(res.Flows, plainBase.Flows) || !reflect.DeepEqual(res.Flows, base.Flows) {
						t.Errorf("flow results diverged:\n 1 shard, telemetry off: %+v\n 1 shard, telemetry on: %+v\n%d shards, telemetry off: %+v",
							plainBase.Flows, base.Flows, shards, res.Flows)
					}
					if !reflect.DeepEqual(res.Fabric, plainBase.Fabric) || !reflect.DeepEqual(res.Fabric, base.Fabric) {
						t.Errorf("fabric counters diverged")
					}
					if res.Events != plainBase.Events {
						t.Errorf("events: %d shards executed %d, 1 shard %d", shards, res.Events, plainBase.Events)
					}
				})
			}
		})
	}
}

// TestSparseCompileFootprint: the point of narrow subsets is that a shard
// only pays for the slice it owns plus its one-hop boundary — per-shard
// compile allocation is the footprint that scales with the fleet, while the
// single reference compile is transient (dropped for GC after New). For
// every shard of a 4-way torus-grid partition, compiling the shard's subset
// must allocate strictly less than compiling the whole spec, even though
// torus traffic makes the node subsets nearly full: the skipped irrelevant
// flows (connection state, socket buffers) are the durable saving.
func TestSparseCompileFootprint(t *testing.T) {
	spec := loadSpec(t, "torus-grid.json")
	r, err := New(spec, Options{Shards: 4, Seed: 42})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := r.Replica(); got != ReplicaSparse {
		t.Fatalf("runner compiles %v subsets (fallback: %v)", got, r.SparseFallback())
	}
	compileAlloc := func(compile func(*sim.Engine) error) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		eng := sim.NewEngine(42)
		if err := compile(eng); err != nil {
			t.Fatalf("compile: %v", err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(eng)
		return after.TotalAlloc - before.TotalAlloc
	}
	for sh := 0; sh < r.plan.Shards; sh++ {
		full := compileAlloc(func(eng *sim.Engine) error {
			_, err := topo.Compile(eng, spec, 42)
			return err
		})
		sparse := compileAlloc(func(eng *sim.Engine) error {
			_, err := topo.CompileSubset(eng, spec, 42, r.subs[sh])
			return err
		})
		if sparse >= full {
			t.Errorf("shard %d: sparse compile allocated %d bytes, full %d: sparse must cost less",
				sh, sparse, full)
		}
		t.Logf("shard %d: full %d bytes, sparse %d bytes (%.1f%% of full)",
			sh, full, sparse, 100*float64(sparse)/float64(full))
	}
}

// TestSingleShardMatchesRunFlows pins the 1-shard parallel run to the plain
// sequential path: identical flow results (the window-quantized stop only
// runs extra tail events after the last completion, which cannot change
// flow outcomes).
func TestSingleShardMatchesRunFlows(t *testing.T) {
	for _, name := range []string{"paper-baseline.json", "beowulf-star.json"} {
		t.Run(name, func(t *testing.T) {
			spec := loadSpec(t, name)
			eng := sim.NewEngine(42)
			net, err := topo.Compile(eng, spec, 42)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := net.RunFlows(10 * units.Minute)
			if err != nil {
				t.Fatal(err)
			}
			par := runShards(t, spec, 1)
			if !reflect.DeepEqual(par.Flows, seq) {
				t.Errorf("1-shard pdes diverged from RunFlows:\nseq: %+v\npar: %+v", seq, par.Flows)
			}
		})
	}
}

// compileHorizon reports the simulated time at which spec's compile-time
// handshakes end, so tests can place fault steps strictly after it.
func compileHorizon(t *testing.T, spec *topo.Spec) units.Time {
	t.Helper()
	eng := sim.NewEngine(42)
	if _, err := topo.Compile(eng, spec, 42); err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	return eng.Now()
}

// chaosOverlay installs a deterministic chaos schedule — a Gilbert-Elliott
// loss burst, independent loss with duplication, and reordering with
// corruption, each healed a few milliseconds later — on the first two links
// of spec, with every step after horizon h so the faults hit the run rather
// than the handshakes. reorder scales the reorder deferral to the topology's
// propagation delays.
func chaosOverlay(t *testing.T, spec *topo.Spec, h, reorder units.Time) {
	t.Helper()
	if len(spec.Links) < 2 {
		t.Fatalf("%s: need >=2 links for a chaos overlay", spec.Name)
	}
	ms := units.Millisecond
	spec.Links[0].Faults = &topo.LinkFaults{
		AtoB: netem.Script{
			{At: h + 1*ms, Fault: netem.Fault{GE: netem.GEConfig{
				Enabled: true, PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.25}}},
			{At: h + 6*ms}, // heal
		},
		BtoA: netem.Script{
			{At: h + 2*ms, Fault: netem.Fault{LossProb: 0.02, DupProb: 0.02}},
			{At: h + 8*ms}, // heal
		},
	}
	spec.Links[1].Faults = &topo.LinkFaults{
		AtoB: netem.Script{
			{At: h + 3*ms, Fault: netem.Fault{
				ReorderProb: 0.1, ReorderDelay: reorder, CorruptProb: 0.01}},
			{At: h + 9*ms}, // heal
		},
	}
}

// TestFaultedShardedEquivalence extends the crown jewel to chaos: a
// fault-scripted topology (scripts on two links, all fault classes) must
// produce byte-identical flow results, fabric counters, and telemetry at
// every shard count, on both subset shapes. This is what per-link rng
// streams (netem.StreamSeed) plus lazy script application buy: fault draws
// are a pure function of (seed, link, direction, packet order), none of
// which depend on how the simulation is sharded.
func TestFaultedShardedEquivalence(t *testing.T) {
	cases := []struct {
		file    string
		reorder units.Time
	}{
		{"torus-grid.json", 200 * units.Microsecond},  // ms-scale trunks, wide windows
		{"beowulf-star.json", 50 * units.Microsecond}, // LAN star, short lookahead
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			clean := runShards(t, loadSpec(t, tc.file), 1)
			spec := loadSpec(t, tc.file)
			chaosOverlay(t, spec, compileHorizon(t, spec), tc.reorder)
			base := runShards(t, spec, 1)
			if reflect.DeepEqual(base.Flows, clean.Flows) {
				t.Fatal("chaos overlay left flow results untouched — fault steps missed the run window")
			}
			for shards := 2; shards <= 4; shards *= 2 {
				for _, sh := range shapes {
					sh := sh
					t.Run(fmt.Sprintf("shards=%d/%s", shards, sh.name), func(t *testing.T) {
						requireSame(t, base, runShape(t, spec, shards, sh), shards)
					})
				}
			}
		})
	}
}

// TestChaosSoakUnderShards: seeded random fault schedules (the chaos
// harness's fault classes, minus carrier flaps whose RTO stalls would blow
// up the window count) over a multi-switch topology must stay shard-count
// exact. Each seed scripts a random set of link directions and compares
// shards {2, 4} against the single-shard run.
func TestChaosSoakUnderShards(t *testing.T) {
	randFault := func(rng *rand.Rand) netem.Fault {
		switch rng.Intn(4) {
		case 0:
			return netem.Fault{LossProb: 0.01 + 0.04*rng.Float64()}
		case 1:
			return netem.Fault{GE: netem.GEConfig{
				Enabled:  true,
				PGoodBad: 0.02 + 0.1*rng.Float64(),
				PBadGood: 0.2 + 0.3*rng.Float64(),
				LossBad:  0.1 + 0.3*rng.Float64(),
			}}
		case 2:
			return netem.Fault{DupProb: 0.02, CorruptProb: 0.005}
		default:
			return netem.Fault{ReorderProb: 0.05 + 0.1*rng.Float64(),
				ReorderDelay: 100 * units.Microsecond}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := loadSpec(t, "fattree-pod.json")
			h := compileHorizon(t, spec)
			rng := rand.New(rand.NewSource(seed))
			gen := func() netem.Script {
				var s netem.Script
				at := h + units.Time(1+rng.Intn(4))*units.Millisecond
				for j := 0; j <= rng.Intn(2); j++ {
					s = append(s, netem.Step{At: at, Fault: randFault(rng)})
					at += units.Time(1+rng.Intn(3)) * units.Millisecond
				}
				return append(s, netem.Step{At: at}) // heal
			}
			perm := rng.Perm(len(spec.Links))
			for _, li := range perm[:2+rng.Intn(3)] {
				lf := &topo.LinkFaults{}
				if rng.Intn(2) == 0 {
					lf.AtoB = gen()
				}
				if rng.Intn(2) == 0 || len(lf.AtoB) == 0 {
					lf.BtoA = gen()
				}
				spec.Links[li].Faults = lf
			}
			base := runShards(t, spec, 1)
			for _, shards := range []int{2, 4} {
				requireSame(t, base, runShards(t, spec, shards), shards)
			}
		})
	}
}

// TestFaultInsideCompileHorizon: fault steps due while compile-time
// handshakes run consume rng draws, so a shard that compiles one handshake
// crossing such a link must compile them all. Two specs, each byte-identical
// to the 1-shard run at shards {2, 4}:
//   - beowulf-star with a dup/loss script from 1 us on one link: every
//     subset that crosses the link widens to all flows crossing it, and the
//     subsets stay narrow;
//   - torus-grid with DupProb 0.3 from 1 us on links 0-5, both directions:
//     flow 0's duplicated handshake packets leave events pending, so every
//     shard compiles the whole spec and SparseFallback names that handshake.
func TestFaultInsideCompileHorizon(t *testing.T) {
	ms := units.Millisecond
	cases := []struct {
		file  string
		fault func(spec *topo.Spec)
		want  Replica
	}{
		{"beowulf-star.json", func(spec *topo.Spec) {
			spec.Links[0].Faults = &topo.LinkFaults{AtoB: netem.Script{
				{At: units.Microsecond, Fault: netem.Fault{DupProb: 0.01}},
				{At: 5 * ms, Fault: netem.Fault{LossProb: 0.01}},
				{At: 9 * ms},
			}}
		}, ReplicaSparse},
		{"torus-grid.json", func(spec *topo.Spec) {
			dup := netem.Script{
				{At: units.Microsecond, Fault: netem.Fault{DupProb: 0.3}},
				{At: 20 * ms},
			}
			for li := 0; li <= 5; li++ {
				spec.Links[li].Faults = &topo.LinkFaults{AtoB: dup, BtoA: dup}
			}
		}, ReplicaFull},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			spec := loadSpec(t, tc.file)
			tc.fault(spec)
			opts := Options{Seed: 42, Telemetry: &telemetry.Options{Enabled: true}, Metrics: true}
			run := func(shards int) *Result {
				t.Helper()
				opts.Shards = shards
				r, err := New(spec, opts)
				if err != nil {
					t.Fatalf("New(shards=%d): %v", shards, err)
				}
				fb := r.SparseFallback()
				if got := r.Replica(); got != tc.want {
					t.Fatalf("shards=%d: runner compiles %v subsets, want %v (fallback: %v)", shards, got, tc.want, fb)
				}
				if tc.want == ReplicaSparse && fb != nil {
					t.Fatalf("shards=%d: narrow subsets with a fallback reason: %v", shards, fb)
				}
				if tc.want == ReplicaFull && (fb == nil || !strings.Contains(fb.Error(), "flow 0's handshake")) {
					t.Fatalf("shards=%d: fallback %v does not name flow 0's handshake", shards, fb)
				}
				res, err := r.Run()
				if err != nil {
					t.Fatalf("Run(shards=%d): %v", shards, err)
				}
				return res
			}
			base := run(1)
			for _, shards := range []int{2, 4} {
				requireSame(t, base, run(shards), shards)
			}
		})
	}
}

// TestTimeoutReturnsTypedError: a run that cannot finish in time reports the
// typed incomplete-flows error naming each unfinished flow.
func TestTimeoutReturnsTypedError(t *testing.T) {
	t.Run("chan", func(t *testing.T) {
		spec := loadSpec(t, "paper-baseline.json")
		r, err := New(spec, Options{Shards: 2, Seed: 42, Timeout: units.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Run()
		var inc *topo.IncompleteFlowsError
		if !errors.As(err, &inc) {
			t.Fatalf("want IncompleteFlowsError, got %v", err)
		}
		if len(inc.Incomplete) == 0 {
			t.Fatal("typed error names no flows")
		}
		for _, f := range inc.Incomplete {
			if f.Flow == "" || f.Total == 0 {
				t.Errorf("underspecified incomplete flow: %+v", f)
			}
		}
	})
}

// TestRunnerReuse: a Runner's engines are reset between runs, so repeated
// runs produce identical results (the property the benchmark loop relies on).
func TestRunnerReuse(t *testing.T) {
	spec := loadSpec(t, "paper-baseline.json")
	r, err := New(spec, Options{Shards: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Flows, second.Flows) {
		t.Error("rerun on reset engines diverged")
	}
	if first.Events != second.Events {
		t.Errorf("rerun executed %d events, first run %d", second.Events, first.Events)
	}
}

// TestCrossoverRejected: a Figure 2(a) crossover has no switch to partition
// along, so New refuses it at any shard count with a typed error naming the
// link, instead of a partition-coverage error.
func TestCrossoverRejected(t *testing.T) {
	spec, err := topo.Parse([]byte(`{"name":"xo","hosts":[{"name":"a"},{"name":"b"}],
		"links":[{"name":"cable","a":"a","b":"b"}],"flows":[{"src":"a","dst":"b"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		_, err := New(spec, Options{Shards: shards, Seed: 1})
		var xe *topo.PlacementError
		if !errors.As(err, &xe) || !xe.Crossover || xe.Link != "cable" {
			t.Errorf("shards=%d: err = %v, want a crossover PlacementError naming link cable", shards, err)
		}
	}
}

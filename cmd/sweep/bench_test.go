package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"tengig/internal/paper"
)

// maxGbpsLoss is the largest loss of simulated Gb/s, on any point or peak,
// that TestSweepBenchHolds accepts against the committed BENCH_sweep.json.
// Throughput is deterministic for a seed, so this is a margin for
// deliberate calibration drift, not for machine noise.
const maxGbpsLoss = 0.02

// readSweepFile decodes a BENCH_sweep.json.
func readSweepFile(t *testing.T, path string) *sweepFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sf sweepFile
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return &sf
}

// rerunSweeps runs every experiment base records, at base's seed and
// resolution, through the recording `sweep -json` writes, and returns what
// it recorded.
func rerunSweeps(t *testing.T, base *sweepFile) *sweepFile {
	t.Helper()
	if base.Meta == nil {
		t.Fatal("no meta: the seed and resolution that produced the file are unknown")
	}
	s := paper.Settings{Seed: base.Meta.Seed, Full: base.Meta.Full, Workers: -1, Sweep: sweep}
	if s.Count() != base.Meta.Count {
		t.Fatalf("meta count %d: a run with full=%v writes %d per point", base.Meta.Count, base.Meta.Full, s.Count())
	}
	figures := map[string]bool{}
	for _, bs := range base.Sweeps {
		figures[bs.Figure] = true
	}
	defer func(on bool) { *jsonOut, benchSweeps = on, nil }(*jsonOut)
	*jsonOut, benchSweeps = true, nil
	for _, e := range paper.Experiments {
		if !figures[e.ID] {
			continue
		}
		benchFigure = e.ID
		if err := e.Run(s, paper.Measured{}); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	return &sweepFile{Sweeps: benchSweeps}
}

// sweepLosses compares cur against base, matching sweeps on figure and
// label and points on payload. It returns one line for each point or peak
// of base that cur lost more than maxGbpsLoss of or does not produce, and
// the number of measurements compared.
func sweepLosses(base, cur *sweepFile) (losses []string, compared int) {
	type key struct{ figure, label string }
	produced := make(map[key]*benchSweep, len(cur.Sweeps))
	for i := range cur.Sweeps {
		s := &cur.Sweeps[i]
		produced[key{s.Figure, s.Label}] = s
	}
	check := func(name string, was, now float64) {
		compared++
		if now < was*(1-maxGbpsLoss) {
			losses = append(losses, fmt.Sprintf("%s: %.4g Gb/s, committed %.4g (%+.1f%%)",
				name, now, was, 100*(now-was)/was))
		}
	}
	for _, b := range base.Sweeps {
		name := b.Figure + "/" + b.Label
		c := produced[key{b.Figure, b.Label}]
		if c == nil {
			losses = append(losses, name+": committed, but the run does not produce it")
			continue
		}
		gbps := make(map[int]float64, len(c.Points))
		for _, p := range c.Points {
			gbps[p.Payload] = p.Gbps
		}
		for _, p := range b.Points {
			now, ok := gbps[p.Payload]
			if !ok {
				losses = append(losses, fmt.Sprintf("%s payload %d: committed, but the run does not produce it", name, p.Payload))
				continue
			}
			check(fmt.Sprintf("%s payload %d", name, p.Payload), p.Gbps, now)
		}
		check(fmt.Sprintf("%s peak (payload %d)", name, b.PeakPayload), b.PeakGbps, c.PeakGbps)
	}
	return losses, compared
}

// TestSweepBenchHolds reruns every sweep the committed BENCH_sweep.json
// records and fails when a point or peak lost more than maxGbpsLoss, or
// when the run no longer produces a committed sweep or payload.
func TestSweepBenchHolds(t *testing.T) {
	base := readSweepFile(t, "../../BENCH_sweep.json")
	cur := rerunSweeps(t, base)
	losses, compared := sweepLosses(base, cur)
	if compared == 0 {
		t.Fatal("BENCH_sweep.json records no measurement")
	}
	for _, l := range losses {
		t.Error(l)
	}
	for _, s := range cur.Sweeps {
		if s.Profile == "" {
			t.Errorf("%s/%s: no host profile recorded", s.Figure, s.Label)
		}
	}
	t.Logf("%d measurements compared against BENCH_sweep.json", compared)

	// A committed file claiming 20% more everywhere: every measurement is
	// reported, named by figure, label and payload.
	t.Run("regressed", func(t *testing.T) {
		faster := &sweepFile{Meta: base.Meta}
		var want []string
		for _, s := range base.Sweeps {
			name := s.Figure + "/" + s.Label
			s.Points = append([]benchPoint(nil), s.Points...)
			for j := range s.Points {
				s.Points[j].Gbps *= 1.2
				want = append(want, fmt.Sprintf("%s payload %d: ", name, s.Points[j].Payload))
			}
			s.PeakGbps *= 1.2
			want = append(want, fmt.Sprintf("%s peak (payload %d): ", name, s.PeakPayload))
			faster.Sweeps = append(faster.Sweeps, s)
		}
		losses, n := sweepLosses(faster, cur)
		if n != compared || len(losses) != len(want) {
			t.Fatalf("%d losses over %d measurements, want all %d:\n%s",
				len(losses), n, compared, strings.Join(losses, "\n"))
		}
		for i, l := range losses {
			if !strings.HasPrefix(l, want[i]) {
				t.Errorf("loss %d is %q, want it named %q", i, l, want[i])
			}
		}
	})

	// A committed sweep or payload the run does not produce fails too.
	t.Run("unproduced", func(t *testing.T) {
		s := cur.Sweeps[0]
		s.Points = append(append([]benchPoint(nil), s.Points...), benchPoint{Payload: 1, Gbps: 1})
		extra := &sweepFile{Sweeps: []benchSweep{s, {Figure: "fig9", Label: "none"}}}
		losses, _ := sweepLosses(extra, cur)
		if len(losses) != 2 || !strings.Contains(losses[0], " payload 1: ") || !strings.HasPrefix(losses[1], "fig9/none: ") {
			t.Errorf("losses %q, want payload 1 of %s/%s and fig9/none", losses, s.Figure, s.Label)
		}
	})
}

// TestSweepMetaWorkers: BENCH_sweep.json records the workers the run used,
// so a run without -parallel records one whatever -workers says.
func TestSweepMetaWorkers(t *testing.T) {
	defer func(p bool, n int) { *parallel, *nworkers = p, n }(*parallel, *nworkers)
	for _, c := range []struct {
		parallel      bool
		workers, want int
	}{
		{false, 3, 1},
		{true, 3, 3},
		{true, 0, runtime.GOMAXPROCS(0)},
	} {
		*parallel, *nworkers = c.parallel, c.workers
		if got := currentSweepFile().Meta.Workers; got != c.want {
			t.Errorf("-parallel=%v -workers %d: meta records %d workers, want %d",
				c.parallel, c.workers, got, c.want)
		}
	}
}

// TestPDESBenchDecodes decodes the committed BENCH_pdes.json with the type
// -pdes-bench writes and requires of each series what the speedup floors
// read: a topology and, last, an entry at the largest shard count. A file
// that also records the retired scheduler, replica and barrier meta words
// decodes too.
func TestPDESBenchDecodes(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_pdes.json")
	if err != nil {
		t.Fatal(err)
	}
	var pf pdesFile
	if err := json.Unmarshal(data, &pf); err != nil {
		t.Fatal(err)
	}
	if pf.Meta == nil || pf.Short == nil {
		t.Fatalf("meta %+v, short %+v: want both", pf.Meta, pf.Short)
	}
	maxShards := pdesBenchShards[len(pdesBenchShards)-1]
	for _, s := range []pdesScenario{{Topology: pf.Meta.Topology, Entries: pf.PDES}, *pf.Short} {
		if s.Topology == "" {
			t.Error("a series names no topology")
		}
		if n := len(s.Entries); n == 0 || s.Entries[n-1].Shards != maxShards {
			t.Errorf("%q: entries %+v do not end at %d shards", s.Topology, s.Entries, maxShards)
		}
	}

	var old pdesFile
	retired := `{"meta":{"topology":"t.json","scheduler":"heap","barrier":"spin","replica":"full"},"pdes":[{"shards":1}]}`
	if err := json.Unmarshal([]byte(retired), &old); err != nil {
		t.Fatalf("file recording retired mode words: %v", err)
	}
	if old.Meta == nil || old.Meta.Topology != "t.json" || len(old.PDES) != 1 {
		t.Errorf("file recording retired mode words decoded as %+v", old)
	}
}

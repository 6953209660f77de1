package bench

import (
	"runtime"
	"strings"
	"testing"
)

// TestCommittedPDESBaselineGates: the committed BENCH_pdes.json loads and
// either gates or skips for a reason about this host, never because the
// baseline itself is unusable — though its meta still records the retired
// scheduler and replica words; a baseline that also records the retired
// barrier word loads too.
func TestCommittedPDESBaselineGates(t *testing.T) {
	f, err := Load("../../BENCH_pdes.json")
	if err != nil {
		t.Fatal(err)
	}
	rep := ComparePDES(f.PDES)
	if rep.Compared == 0 && len(rep.Skipped) == 0 {
		t.Fatal("committed pdes baseline neither gated nor skipped")
	}
	for _, s := range rep.Skipped {
		if strings.Contains(s, "baseline") {
			t.Errorf("committed pdes baseline skipped for its own content: %s", s)
		}
	}
	old, err := Parse([]byte(`{"meta":{"topology":"t.json","scheduler":"heap","barrier":"spin","replica":"full"},"pdes":[{"shards":1}]}`))
	if err != nil {
		t.Fatalf("baseline recording retired mode words: %v", err)
	}
	if old.PDES.Meta.Topology != "t.json" || len(old.PDES.PDES) != 1 {
		t.Errorf("old baseline decoded as %+v", old.PDES)
	}
}

// TestComparePDESSkipPaths pins the visible-skip contract: a gate that
// cannot check the speedup floor must say why instead of silently passing.
func TestComparePDESSkipPaths(t *testing.T) {
	cases := []struct {
		name string
		file *PDESFile
		want string
	}{
		{"no entries", &PDESFile{Meta: &Meta{Topology: "t.json"}}, "no entries"},
		{"no topology", &PDESFile{PDES: []PDESEntry{{Shards: 1}, {Shards: 4}}}, "no topology"},
		{
			"no multi-shard entry",
			&PDESFile{Meta: &Meta{Topology: "t.json"}, PDES: []PDESEntry{{Shards: 1, WallMS: 10, Speedup: 1}}},
			"no multi-shard",
		},
		{
			"too few cpus",
			&PDESFile{
				Meta: &Meta{Topology: "t.json"},
				PDES: []PDESEntry{{Shards: 1}, {Shards: runtime.NumCPU() + 1}},
			},
			"CPUs",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := ComparePDES(c.file)
			if rep.Failed() || rep.Compared != 0 {
				t.Fatalf("expected a pure skip, got %+v", rep)
			}
			if len(rep.Skipped) != 1 || !strings.Contains(rep.Skipped[0], c.want) {
				t.Errorf("skip reason %q does not mention %q", rep.Skipped, c.want)
			}
		})
	}
}

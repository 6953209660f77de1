package core_test

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"tengig/internal/paper"
)

var update = flag.Bool("update", false, "rewrite the generated blocks of EXPERIMENTS.md and README.md")

// measured runs every experiment of internal/paper once per test binary,
// as `sweep -all` does at its default settings, leaving out the WAN record
// under -short.
var measured = sync.OnceValues(func() (paper.Measured, error) {
	m := paper.Measured{}
	for _, e := range paper.Experiments {
		if testing.Short() && e.ID == "wan" {
			continue
		}
		if err := e.Run(paper.Settings{Seed: 1, Workers: -1}, m); err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return m, nil
})

// verdicts evaluates every claim against the measured experiments.
func verdicts(t *testing.T) []paper.Verdict {
	t.Helper()
	m, err := measured()
	if err != nil {
		t.Fatal(err)
	}
	return paper.Evaluate(m)
}

// check fails t unless v holds or is only reported.
func check(t *testing.T, v paper.Verdict) {
	t.Helper()
	switch {
	case !v.Measured && testing.Short() && v.Exp() == "wan":
		t.Skip("WAN record skipped under -short")
	case !v.Measured:
		t.Errorf("%s: not measured: %v", v.ID, v.Of.Inputs())
	case !v.OK():
		t.Errorf("%s: %s = %s, want %s (paper: %s)", v.ID, v.What,
			v.Unit.Format(v.Value), v.Band.Format(v.Unit), v.Paper.Format(v.Unit))
	}
}

// TestClaims checks every claim of the paper's table at `sweep -all`'s
// settings, and regenerates the claim tables of EXPERIMENTS.md and
// README.md (with -update) or fails when the committed ones differ.
func TestClaims(t *testing.T) {
	vs := verdicts(t)
	for _, v := range vs {
		t.Run(v.ID, func(t *testing.T) { check(t, v) })
	}
	if testing.Short() {
		return // without the WAN record the docs cannot be regenerated
	}
	for _, doc := range []string{"../../EXPERIMENTS.md", "../../README.md"} {
		checkDoc(t, doc, vs)
	}
}

// checkClaims checks every claim whose ID starts with one of prefixes. Each
// test below names the rows of one experiment or one paper result, so a
// failure names the result a model change moved, and one result can be
// checked on its own (the experiments still all run, once per binary):
//
//	go test ./internal/core -run TestCalibrationLatency
func checkClaims(t *testing.T, prefixes ...string) {
	t.Helper()
	checked := 0
	for _, v := range verdicts(t) {
		for _, p := range prefixes {
			if strings.HasPrefix(v.ID, p) {
				check(t, v)
				checked++
				break
			}
		}
	}
	if checked == 0 {
		t.Fatalf("no claim matches %v", prefixes)
	}
}

func TestCalibrationStockTCP(t *testing.T) {
	checkClaims(t, "fig3.peak-", "fig3.jumbo-gain")
}

func TestCalibrationMMRBC(t *testing.T) { checkClaims(t, "ladder.mmrbc") }

func TestCalibrationOptimized(t *testing.T) { checkClaims(t, "fig4.peak-9000", "fig5.") }

func TestCalibrationBufferRungAt1500(t *testing.T) {
	checkClaims(t, "ladder1500.up", "ladder1500.buffers", "fig4.peak-1500")
}

func TestCalibrationE7505(t *testing.T) { checkClaims(t, "anecdotes.e7505") }

func TestCalibrationPE4600NoGain(t *testing.T) {
	checkClaims(t, "anecdotes.pe4600-vs-pe2650", "anecdotes.stream-4600-vs-2650")
}

func TestCalibrationPktgen(t *testing.T) { checkClaims(t, "multiflow.pktgen") }

func TestCalibrationLatency(t *testing.T) { checkClaims(t, "fig6.", "fig7.") }

func TestCalibrationStream(t *testing.T) { checkClaims(t, "anecdotes.stream-") }

func TestCalibrationIperfMatchesNTTCP(t *testing.T) { checkClaims(t, "tools.") }

func TestCalibrationAllocatorSawtooth(t *testing.T) { checkClaims(t, "mtu.") }

func TestCalibrationGbEBaseline(t *testing.T) { checkClaims(t, "compare.gbe") }

func TestWANRecordRun(t *testing.T) {
	checkClaims(t, "wan.gbps", "wan.efficiency", "wan.rtt", "wan.terabyte", "wan.drops", "wan.retx")
}

func TestWANOversizedBufferLoses(t *testing.T) { checkClaims(t, "wan.over-") }

func TestMultiFlowAggregation(t *testing.T) { checkClaims(t, "multiflow.rx", "multiflow.slowest") }

func TestMultiFlowTransmitEqualsReceive(t *testing.T) { checkClaims(t, "multiflow.tx-rx") }

func TestMultiFlowTwoAdaptersEqualsOne(t *testing.T) { checkClaims(t, "multiflow.two-nics") }

func TestMultiFlowItanium(t *testing.T) { checkClaims(t, "anecdotes.itanium") }

func TestTable1(t *testing.T) { checkClaims(t, "table1.") }

func TestWindowAudit(t *testing.T) { checkClaims(t, "fig8.") }

// blockRE matches a generated block of a document: an opening marker
// naming its content, and the end marker.
var blockRE = regexp.MustCompile(`(?s)<!-- (claims \S+|readme claims|deviations) -->\n.*?<!-- end -->`)

// checkDoc regenerates every generated block of the file and compares it
// with the committed one, or with -update writes it.
func checkDoc(t *testing.T, path string, vs []paper.Verdict) {
	t.Helper()
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	doc := blockRE.ReplaceAllStringFunc(string(old), func(block string) string {
		blocks++
		kind := blockRE.FindStringSubmatch(block)[1]
		return "<!-- " + kind + " -->\n" + render(t, kind, vs) + "<!-- end -->"
	})
	switch {
	case blocks == 0:
		t.Errorf("%s has no generated blocks", path)
	case doc == string(old):
	case *update:
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		t.Errorf("%s is stale; regenerate it with go test ./internal/core -run TestClaims -update", path)
	}
}

// render returns one generated block's markdown.
func render(t *testing.T, kind string, vs []paper.Verdict) string {
	var b strings.Builder
	switch kind {
	case "deviations":
		for _, d := range paper.Deviations {
			var named []string
			for _, v := range vs {
				if v.Dev == d.ID {
					named = append(named, "`"+v.ID+"`")
				}
			}
			fmt.Fprintf(&b, "- **%s — %s** %s (%s)\n", d.ID, d.Title, d.Reason, strings.Join(named, ", "))
		}
	case "readme claims":
		b.WriteString("| Claim | Command | Paper | This repo |\n|---|---|---|---|\n")
		for _, v := range vs {
			if v.Readme {
				fmt.Fprintf(&b, "| %s %s | `%s` | %s | %s |\n",
					v.Sec, v.What, command(v.Exp()), v.Paper.Format(v.Unit), v.Unit.Format(v.Value))
			}
		}
	default:
		exp := strings.TrimPrefix(kind, "claims ")
		known := false
		for _, e := range paper.Experiments {
			known = known || e.ID == exp
		}
		if !known {
			t.Errorf("generated block names unknown experiment %s", exp)
		}
		fmt.Fprintf(&b, "`go run ./cmd/%s`\n\n", command(exp))
		b.WriteString("| § | Claim | Paper | Measured | Band | Verdict |\n|---|---|---|---|---|---|\n")
		for _, v := range vs {
			if v.Exp() == exp {
				fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s |\n", v.Sec, v.What,
					v.Paper.Format(v.Unit), v.Unit.Format(v.Value), v.Band.Format(v.Unit), v.Word())
			}
		}
	}
	return b.String()
}

// command is the `sweep` invocation that runs only experiment exp.
func command(exp string) string {
	if n, ok := strings.CutPrefix(exp, "fig"); ok {
		return "sweep -fig " + n
	}
	if n, ok := strings.CutPrefix(exp, "table"); ok {
		return "sweep -table " + n
	}
	return "sweep -exp " + exp
}

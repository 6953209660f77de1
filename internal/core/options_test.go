package core

import (
	"strings"
	"testing"

	"tengig/internal/host"
	"tengig/internal/ipv4"
)

func TestProfilesEnumerate(t *testing.T) {
	ps := host.Profiles()
	if len(ps) != 5 {
		t.Fatalf("profiles = %d", len(ps))
	}
	for _, p := range ps {
		cfg := host.ProfileConfig(p, "h", ipv4.HostN(1))
		if err := cfg.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p, err)
		}
	}
}

func TestUnknownProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	host.ProfileConfig(host.Profile("vax11"), "h", ipv4.HostN(1))
}

func TestStockInvalidMTUPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	host.Stock(64)
}

func TestTuningLabels(t *testing.T) {
	l := host.Stock(9000).Label()
	for _, want := range []string{"9000MTU", "SMP", "512PCI", "85kbuf"} {
		if !strings.Contains(l, want) {
			t.Errorf("stock label %q missing %q", l, want)
		}
	}
	l = host.Optimized(8160).WithoutTimestamps().WithoutCoalescing().WithNAPI().WithTSO().Label()
	for _, want := range []string{"8160MTU", "UP", "4096PCI", "256kbuf", "nots", "nocoal", "napi", "tso"} {
		if !strings.Contains(l, want) {
			t.Errorf("label %q missing %q", l, want)
		}
	}
}

func TestTuningBuilderChain(t *testing.T) {
	tun := host.Stock(9000).
		WithMMRBC(2048).
		WithUP().
		WithSockBuf(128 * 1024).
		WithMTU(8160).
		WithWindowScale(1 << 20).
		WithoutSACK().
		WithFractionalWindows().
		WithRcvMSSOwn()
	if tun.MMRBC != 2048 || !tun.Uniprocessor || tun.MTU != 8160 {
		t.Errorf("builder lost values: %+v", tun)
	}
	cfg := tun.TCPConfig()
	if cfg.SndBuf != 1<<20 || !cfg.WindowScale {
		t.Errorf("window scale buf: %+v", cfg)
	}
	if cfg.SACK {
		t.Error("SACK should be off")
	}
	if cfg.SWSAvoidance || cfg.AlignCwnd {
		t.Error("fractional windows should disable alignment")
	}
}

func TestDefaultPayloadsCoverPaperRange(t *testing.T) {
	ps := DefaultPayloads()
	if ps[0] != 128 || ps[len(ps)-1] != 16384 {
		t.Errorf("payload range %d..%d, want 128..16384", ps[0], ps[len(ps)-1])
	}
	// Extra resolution near the jumbo MSS.
	near := 0
	for _, p := range ps {
		if p >= 7000 && p <= 9500 {
			near++
		}
	}
	if near < 5 {
		t.Errorf("only %d points near the MSS boundary", near)
	}
}

func TestLadderRungsOrder(t *testing.T) {
	rungs := LadderRungs(9000)
	if len(rungs) != 4 {
		t.Fatalf("rungs = %d", len(rungs))
	}
	if rungs[0].Tuning.MMRBC != 512 || rungs[1].Tuning.MMRBC != 4096 {
		t.Error("MMRBC rung order")
	}
	if rungs[1].Tuning.Uniprocessor || !rungs[2].Tuning.Uniprocessor {
		t.Error("UP rung order")
	}
	if rungs[3].Tuning.SockBuf != 256*1024 {
		t.Error("buffer rung")
	}
}

package halsim_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"halsim"
)

// goldenStatefulRuns renders runs whose stateful function shares its state
// over a coherence fabric, so the per-packet state-access path (state lines,
// directory, fabric costs) is pinned byte for byte against
// testdata/golden_stateful.txt. Each row is the standard golden line plus
// the run's CoherenceRemote and the directory's summed statistics. Every
// call builds fresh fabrics: a directory keeps its state across runs.
func goldenStatefulRuns(t *testing.T, tel halsim.TelemetryConfig) string {
	t.Helper()
	var b strings.Builder
	rows := []struct {
		name string
		cfg  halsim.Config
		rc   halsim.RunConfig
	}{
		// Count's counter lines shared by the host and the SNIC.
		{"HAL/Count/cxl",
			halsim.Config{Mode: halsim.HAL, Fn: halsim.Count, Fabric: halsim.NewFabric(halsim.CXL, 2)},
			halsim.RunConfig{Duration: 8 * halsim.Millisecond, RateGbps: 60}},
		// KVS over 1<<18 lines into 64-line caches: LRU evictions and
		// dirty write-backs on every node.
		{"HAL/KVS/cxl-capped64",
			halsim.Config{Mode: halsim.HAL, Fn: halsim.KVS, Fabric: halsim.NewFabricCapped(halsim.CXL, 2, 64)},
			halsim.RunConfig{Duration: 8 * halsim.Millisecond, RateGbps: 60}},
		// EMA behind SLB forwarding cores.
		{"SLB/EMA/cxl",
			halsim.Config{Mode: halsim.SLB, Fn: halsim.EMA, SLBCores: 1, SLBFwdThGbps: 30, Fabric: halsim.NewFabric(halsim.CXL, 2)},
			halsim.RunConfig{Duration: 8 * halsim.Millisecond, RateGbps: 60}},
	}
	for _, row := range rows {
		cfg := row.cfg
		cfg.Seed, cfg.Telemetry = 7, tel
		res, err := halsim.Run(cfg, row.rc)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		writeGoldenLine(&b, row.name, res)
		fmt.Fprintf(&b, "  coherence: remote=%d total=%+v\n", res.CoherenceRemote, cfg.Fabric.Directory().TotalStats())
	}
	return b.String()
}

// TestGoldenStateful locks the stateful CXL path to its fixture.
func TestGoldenStateful(t *testing.T) {
	got := goldenStatefulRuns(t, halsim.TelemetryConfig{})
	path := filepath.Join("testdata", "golden_stateful.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	compareFixture(t, path, got)
}

// TestGoldenStatefulTelemetryOn re-runs the stateful battery with every
// collector on: the observers are read-only, so the same fixture holds.
func TestGoldenStatefulTelemetryOn(t *testing.T) {
	if *updateGolden {
		t.Skip("fixture is written by TestGoldenStateful")
	}
	compareFixture(t, filepath.Join("testdata", "golden_stateful.txt"),
		goldenStatefulRuns(t, halsim.TelemetryConfig{Timeline: true, TraceEvery: 64}))
}

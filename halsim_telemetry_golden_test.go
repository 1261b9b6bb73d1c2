package halsim_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"halsim"
)

// goldenTelemetry renders a short form of the traced CI run (HAL, NAT,
// 80 Gbps, every collector on) as digests of its three artifacts. The
// columns and metrics that count engine events or size the timing wheel
// are left out: they describe how the simulator schedules its work, not
// what it simulates, and an engine change may move them without moving a
// single simulated number.
func goldenTelemetry(t *testing.T) string {
	t.Helper()
	res, err := halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 1,
			Telemetry: halsim.TelemetryConfig{Timeline: true, TraceEvery: 64}},
		halsim.RunConfig{Duration: 20 * halsim.Millisecond, RateGbps: 80})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder

	var csv bytes.Buffer
	if err := res.Timeline.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, row := range strings.Split(strings.TrimSuffix(csv.String(), "\n"), "\n") {
		cut := strings.LastIndexByte(row, ',')
		if cut < 0 || row[cut+1:] == "" {
			t.Fatalf("timeline row without an events column: %q", row)
		}
		rows = append(rows, row[:cut])
	}
	if !strings.HasSuffix(rows[0], ",p99_window_us") {
		t.Fatalf("timeline header no longer ends in p99_window_us,events: %q", rows[0])
	}
	fmt.Fprintf(&b, "timeline.csv without events: rows=%d sha256=%x\n",
		len(rows)-1, sha256.Sum256([]byte(strings.Join(rows, "\n"))))

	var trace bytes.Buffer
	if err := res.Trace.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "trace.json: spans=%d sha256=%x\n", res.Trace.Len(), sha256.Sum256(trace.Bytes()))

	var text bytes.Buffer
	if err := res.Metrics.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, l := range strings.Split(text.String(), "\n") {
		if strings.Contains(l, "halsim_engine_") || strings.Contains(l, "halsim_wheel_") {
			continue
		}
		kept = append(kept, l)
	}
	fmt.Fprintf(&b, "metrics.txt without engine and wheel: lines=%d sha256=%x\n",
		len(kept), sha256.Sum256([]byte(strings.Join(kept, "\n"))))
	return b.String()
}

// TestGoldenTelemetry locks the telemetry artifacts of a traced run to a
// committed fixture: the timeline's simulated columns, the sampled packet
// trace and the metric registry must stay byte-identical across engine and
// hot-path refactors.
func TestGoldenTelemetry(t *testing.T) {
	got := goldenTelemetry(t)
	path := filepath.Join("testdata", "golden_telemetry.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	compareFixture(t, path, got)
}

package halsim_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"halsim"
)

// goldenClusterRuns renders a battery of fleet runs into one text
// artifact, the cluster counterpart of goldenRuns: every numeric Result
// field printed with %v, compared byte-exactly against
// testdata/golden_cluster_runs.txt. The same fixture must hold with
// telemetry on — the observers are read-only by contract.
func goldenClusterRuns(t *testing.T, tel halsim.TelemetryConfig) string {
	t.Helper()
	var b strings.Builder
	line := func(name string, res halsim.Result) { writeGoldenLine(&b, name, res) }

	// Round-robin fleet under pressure: dispatch is blind, so the
	// per-server HLBs absorb the load and some servers drop.
	res, err := halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 7, Telemetry: tel,
			Cluster: &halsim.ClusterConfig{Servers: 8}},
		halsim.RunConfig{Duration: 6 * halsim.Millisecond, RateGbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	line("fleet8/rr/HAL/NAT", res)

	// Power-of-two-choices fleet with a mid-run server blackout, drained:
	// the dispatcher's in-flight counts route around the dead server, the
	// conservation ledger still closes to zero.
	res, err = halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 7, Telemetry: tel,
			Cluster: &halsim.ClusterConfig{Servers: 8, Dispatch: "p2c",
				Crashes: []halsim.ServerCrash{{Server: 3, At: 1 * halsim.Millisecond, For: 1 * halsim.Millisecond}}}},
		halsim.RunConfig{Duration: 4 * halsim.Millisecond, RateGbps: 120, Drain: true,
			PhaseMarks: []halsim.Time{1 * halsim.Millisecond, 2 * halsim.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	line("fleet8/p2c/crash", res)
	for i, ph := range res.Phases {
		fmt.Fprintf(&b, "  phase%d: [%v,%v) avg=%v p99=%v power=%v completed=%d\n",
			i, ph.Start, ph.End, ph.AvgGbps, ph.P99us, ph.AvgPowerW, ph.Completed)
	}

	// Non-HAL fleet (no LBP director) with a slower fabric: the sampler
	// path without control state, wire latency dominating the RTT.
	res, err = halsim.Run(
		halsim.Config{Mode: halsim.SNICOnly, Fn: halsim.NAT, Seed: 7, Telemetry: tel,
			Cluster: &halsim.ClusterConfig{Servers: 5, WireNS: 10 * halsim.Microsecond, LinkGbps: 25}},
		halsim.RunConfig{Duration: 6 * halsim.Millisecond, RateGbps: 50})
	if err != nil {
		t.Fatal(err)
	}
	line("fleet5/rr/SNICOnly/slowfabric", res)

	// A heavier function across a mid-size fleet.
	res, err = halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.REM, Seed: 7, Telemetry: tel,
			Cluster: &halsim.ClusterConfig{Servers: 12, Dispatch: "p2c"}},
		halsim.RunConfig{Duration: 6 * halsim.Millisecond, RateGbps: 150})
	if err != nil {
		t.Fatal(err)
	}
	line("fleet12/p2c/HAL/REM", res)

	// Fleet scale: 64 servers.
	res, err = halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 7, Telemetry: tel,
			Cluster: &halsim.ClusterConfig{Servers: 64}},
		halsim.RunConfig{Duration: 3 * halsim.Millisecond, RateGbps: 400})
	if err != nil {
		t.Fatal(err)
	}
	line("fleet64/rr/HAL/NAT", res)

	// Datacenter scale: 1024 servers in 8 pods behind 4:1 oversubscribed
	// ToR uplinks, least-conn dispatch: exercises the pod-uplink
	// serialization path in both directions.
	res, err = halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 7, Telemetry: tel,
			Cluster: &halsim.ClusterConfig{Servers: 1024, Dispatch: "least-conn",
				Pods: 8, Oversub: 4}},
		halsim.RunConfig{Duration: halsim.Millisecond, RateGbps: 1024})
	if err != nil {
		t.Fatal(err)
	}
	line("fleet1024/least-conn/pods8", res)

	return b.String()
}

// TestClusterGoldenDeterminism locks the fleet runner's numeric output to
// a committed fixture on the serial engine.
func TestClusterGoldenDeterminism(t *testing.T) {
	got := goldenClusterRuns(t, halsim.TelemetryConfig{})
	path := filepath.Join("testdata", "golden_cluster_runs.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	compareFixture(t, path, got)
}

// TestClusterGoldenTelemetryOn enables the timeline and registry across
// the serial battery: fleet telemetry is read-only, so the fixture holds.
func TestClusterGoldenTelemetryOn(t *testing.T) {
	if *updateGolden {
		t.Skip("fixture is written by TestClusterGoldenDeterminism")
	}
	compareFixture(t, filepath.Join("testdata", "golden_cluster_runs.txt"),
		goldenClusterRuns(t, halsim.TelemetryConfig{Timeline: true}))
}

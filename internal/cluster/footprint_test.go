package cluster

import (
	"runtime"
	"testing"

	"halsim/internal/nf"
	"halsim/internal/server"
)

// maxSetupBytesPerServer bounds what building a fleet costs per server.
// Rings, histograms and NF tables grow on first use, so a fleet server's
// set-up is its stations, policies and bound closures: about 19 KB. An
// eagerly allocated per-server structure (a 1024-descriptor ring array
// alone is 8 KB) pushes a run past the bound.
const maxSetupBytesPerServer = 32 << 10

// TestFleetSetupFootprint builds the 1024-server fleet of the benchmark
// (8 pods, 4:1 uplinks, p2c, NAT at 6.25 Gbps per server) and runs it for
// 1 ns, so the bytes allocated are almost all set-up.
func TestFleetSetupFootprint(t *testing.T) {
	const servers = 1024
	cfg := server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: 1,
		Cluster: &server.ClusterConfig{Servers: servers, Dispatch: "p2c", Pods: 8, Oversub: 4}}
	rc := server.RunConfig{Duration: 1, RateGbps: 6.25 * servers}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg, rc); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perServer := (after.TotalAlloc - before.TotalAlloc) / servers
	t.Logf("set-up allocates %d B per server", perServer)
	if perServer > maxSetupBytesPerServer {
		t.Fatalf("set-up allocates %d B per server, want <= %d", perServer, maxSetupBytesPerServer)
	}
}

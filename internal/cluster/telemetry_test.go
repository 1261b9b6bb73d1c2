package cluster

import (
	"strings"
	"testing"

	"halsim/internal/nf"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/telemetry"
)

// TestFleetTelemetryLedger checks that a fleet's registry and timeline
// close the same all-time ledger its Result does: packets sent (warmup
// included, as the metric's help text says), completed and dropped. A
// mid-run blackout on one server puts fault drops on the books too.
func TestFleetTelemetryLedger(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: 1,
		Telemetry: telemetry.Config{Timeline: true, Registry: reg},
		Cluster: &server.ClusterConfig{Servers: 2,
			Crashes: []server.ServerCrash{{Server: 1, At: sim.Millisecond, For: 500 * sim.Microsecond}}}}
	res, err := Run(cfg, server.RunConfig{Duration: 2 * sim.Millisecond, RateGbps: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.SentAll == res.Sent || res.FaultDrops == 0 {
		t.Fatalf("run too tame to tell the counters apart: sent %d, sentAll %d, fault drops %d",
			res.Sent, res.SentAll, res.FaultDrops)
	}
	counter := func(name string) uint64 { return uint64(reg.Value(reg.Counter(name, ""))) }
	if got := counter("halsim_packets_sent_total"); got != res.SentAll {
		t.Errorf("halsim_packets_sent_total = %d, want SentAll %d", got, res.SentAll)
	}
	if got := counter("halsim_packets_completed_total"); got != res.CompletedAll {
		t.Errorf("halsim_packets_completed_total = %d, want CompletedAll %d", got, res.CompletedAll)
	}
	tl := res.Timeline
	if tl == nil || tl.Len() == 0 {
		t.Fatal("no timeline samples")
	}
	last := tl.At(tl.Len() - 1)
	if last.Completed != res.CompletedAll {
		t.Errorf("last sample completed %d, want CompletedAll %d", last.Completed, res.CompletedAll)
	}
	if got := last.Drops + last.FaultDrops; got != res.DroppedAll {
		t.Errorf("last sample drops %d + fault drops %d = %d, want DroppedAll %d",
			last.Drops, last.FaultDrops, got, res.DroppedAll)
	}
}

// TestFleetRejectsPacketTracing checks that a fleet asked for a packet
// trace fails instead of running without one.
func TestFleetRejectsPacketTracing(t *testing.T) {
	cfg := server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: 1,
		Telemetry: telemetry.Config{TraceEvery: 64},
		Cluster:   &server.ClusterConfig{Servers: 2}}
	_, err := Run(cfg, server.RunConfig{Duration: sim.Millisecond, RateGbps: 10})
	if err == nil || !strings.Contains(err.Error(), "TraceEvery") {
		t.Fatalf("want a TraceEvery error, got %v", err)
	}
}

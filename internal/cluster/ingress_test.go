package cluster

import (
	"testing"

	"halsim/internal/nf"
	"halsim/internal/server"
	"halsim/internal/sim"
)

// drainedFleet runs a fleet to its drain and returns the ingress state with
// the Result.
func drainedFleet(t *testing.T, cc server.ClusterConfig) (*crun, server.Result) {
	t.Helper()
	cfg := server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: 3, Cluster: &cc}
	rc := server.RunConfig{Duration: 2 * sim.Millisecond, RateGbps: 30 * float64(cc.Servers), Drain: true}
	c, err := newRun(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	c.start()
	c.run()
	res := c.collect()
	if res.InFlightEnd != 0 {
		t.Fatalf("drained run ends with %d packets in flight", res.InFlightEnd)
	}
	return c, res
}

// TestFleetIngressSettlesEveryRequest checks that the ingress's in-flight
// counts close: in a drained, crash-free run every request's response
// comes back to the server it was sent to, on the flat star and through
// the pod uplinks alike.
func TestFleetIngressSettlesEveryRequest(t *testing.T) {
	for _, pods := range []int{0, 2} {
		c, res := drainedFleet(t, server.ClusterConfig{Servers: 8, Dispatch: "p2c", Pods: pods, Oversub: 2})
		if res.CompletedAll == 0 {
			t.Fatalf("pods %d: nothing completed", pods)
		}
		for i, o := range c.outstanding {
			if o != 0 {
				t.Errorf("pods %d: server %d ends with %d requests outstanding", pods, i, o)
			}
		}
	}
}

// TestFleetIngressCountsDropsOutstanding checks that, in a drained run with
// a blackout, the requests the ingress still counts as outstanding are
// exactly the ones the fleet dropped: a dropped request never answers.
func TestFleetIngressCountsDropsOutstanding(t *testing.T) {
	c, res := drainedFleet(t, server.ClusterConfig{Servers: 4, Dispatch: "p2c", Pods: 2,
		Crashes: []server.ServerCrash{{Server: 1, At: 500 * sim.Microsecond, For: 500 * sim.Microsecond}}})
	if res.DroppedAll == 0 {
		t.Fatal("blackout dropped nothing")
	}
	var sum int64
	for _, o := range c.outstanding {
		sum += o
	}
	if uint64(sum) != res.DroppedAll {
		t.Fatalf("Σ outstanding = %d, want DroppedAll %d", sum, res.DroppedAll)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"halsim/internal/cluster"
	"halsim/internal/experiments"
	"halsim/internal/nf"
	"halsim/internal/server"
	"halsim/internal/sim"
)

// runClusterSuite measures the fleet-scale sentinels: a whole HAL fleet
// (64 servers; 256 and podded 1024 and 4096 without -quick) behind one
// shared ingress with p2c dispatch. -baseline gates ns/op growth at
// -baseline-tolerance like bench does.
func runClusterSuite(opt experiments.Options, quick bool, repeat int, tol float64, outPath, baselinePath string) error {
	if repeat < 1 {
		repeat = 1
	}
	dur := 6 * sim.Millisecond
	if quick {
		dur = 2 * sim.Millisecond
	}

	fleetBench := func(servers, pods int, rate float64, d sim.Time) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := cluster.Run(
					server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: opt.Seed,
						Cluster: &server.ClusterConfig{Servers: servers, Dispatch: "p2c",
							Pods: pods, Oversub: 4}},
					server.RunConfig{Duration: d, RateGbps: rate})
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed == 0 {
					b.Fatal("no packets completed")
				}
			}
		}
	}
	type fleetRow struct {
		servers, pods int
		dur           sim.Time
	}
	// Fleet1024 and Fleet4096 run the two-tier pod fabric (8 pods, 4:1
	// oversubscribed uplinks) over a shorter window so the non-quick suite
	// stays minutes, not tens of minutes; the flat-star sentinels keep
	// their durations so rows stay comparable against older baselines.
	rows := []fleetRow{{64, 0, dur}}
	if !quick {
		rows = append(rows, fleetRow{256, 0, dur}, fleetRow{1024, 8, sim.Millisecond},
			fleetRow{4096, 8, sim.Millisecond})
	}
	var benches []namedBench
	for _, fr := range rows {
		// Aggregate offered load scales with the fleet so per-server load
		// stays constant (6.25 Gbps each).
		rate := 6.25 * float64(fr.servers)
		benches = append(benches,
			namedBench{fmt.Sprintf("Fleet%d/serial", fr.servers), fleetBench(fr.servers, fr.pods, rate, fr.dur)})
	}

	snap := benchSnapshot{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Quick:      quick,
		Seed:       opt.Seed,
		Repeat:     repeat,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, nb := range benches {
		best, err := measureBest(nb, repeat)
		if err != nil {
			return err
		}
		snap.Results = append(snap.Results, best)
		fmt.Printf("%-18s %6d iter  %14.0f ns/op  %12d B/op  %10d allocs/op  (min of %d)\n",
			best.Name, best.Iterations, best.NsPerOp, best.BytesPerOp, best.AllocsPerOp, repeat)
	}
	if outPath == "" {
		outPath = "BENCH_cluster.json"
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)

	if baselinePath != "" {
		return compareBaseline(snap, baselinePath, tol)
	}
	return nil
}

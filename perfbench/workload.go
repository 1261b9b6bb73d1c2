package main

import (
	"fmt"

	"halsim"
	"halsim/internal/sim"
	"halsim/internal/trace"
)

// workload is one named input set. build returns a fresh configuration
// for one run: the CXL fabric of a stateful run carries directory state,
// so no two runs may share a Config.
type workload struct {
	name string
	why  string
	// servers is the number of complete servers the run builds.
	servers int
	// depth is the mean number of pending engine events during the run,
	// measured once on seed 1 with an instrumented engine (45, 75 and
	// 12813). It sizes the scheduler microbenchmark, which has no access
	// to the engine inside halsim.Run.
	depth int
	// sizes is the workload's wire-size distribution, used to shape the
	// inputs of the layer microbenchmarks.
	sizes func() *trace.SizeDist
	build func(seed int64) (halsim.Config, halsim.RunConfig, error)
	// requestedGbps is the offered load the workload asks for; the run's
	// OfferedGbps is reported against it as server.offered_ratio.
	requestedGbps func(seed int64) (float64, error)
}

// Hadoop runs are sized by traffic volume, not by a fixed duration: the
// trace draws each 1 ms epoch's rate from a log-normal with σ = 6.56
// clamped at 100 Gbps, so a fixed 1 s run offers anywhere from 1.6M to
// 2.1M packets depending on the seed. The run instead lasts the fewest
// whole epochs whose drawn rates add up to hadoopVolumeGbit, so every seed
// offers about the same work and host time compares across seeds.
const (
	hadoopVolumeGbit = 10.0
	hadoopTraceSeed  = 17 // the client seeds its trace generator with Config.Seed+17
	hadoopMaxEpochs  = 5000
)

// hadoopRates replays the client's trace generator for seed and returns
// the drawn rate of each epoch up to the first that reaches
// hadoopVolumeGbit.
func hadoopRates(seed int64) ([]float64, error) {
	g, err := trace.New(trace.Hadoop, seed+hadoopTraceSeed)
	if err != nil {
		return nil, err
	}
	var rates []float64
	vol := 0.0
	for len(rates) < hadoopMaxEpochs {
		r := g.NextRateGbps()
		rates = append(rates, r)
		if vol += r * sim.Millisecond.Seconds(); vol >= hadoopVolumeGbit {
			return rates, nil
		}
	}
	return nil, fmt.Errorf("hadoop trace for seed %d offers under %.1f Gbit in %d epochs", seed, hadoopVolumeGbit, hadoopMaxEpochs)
}

// hadoopRequestedGbps is the mean rate the drawn epochs ask for over the
// window OfferedGbps measures: after the warm-up (a fifth of the run,
// at most 100 ms) to the end.
func hadoopRequestedGbps(rates []float64) float64 {
	d := sim.Time(len(rates)) * sim.Millisecond
	warm := min(d/5, 100*sim.Millisecond)
	bits := 0.0
	for k, r := range rates {
		lo := max(sim.Time(k)*sim.Millisecond, warm)
		if hi := sim.Time(k+1) * sim.Millisecond; hi > lo {
			bits += r * float64(hi-lo)
		}
	}
	return bits / float64(d-warm)
}

// fleetServers and fleetGbpsPerServer define fleet-1024. 6.25 Gbps per
// server is the load the halbench cluster suite has always requested.
const (
	fleetServers       = 1024
	fleetGbpsPerServer = 6.25
)

var workloads = []workload{
	{
		name:    "hal-nat-80g",
		why:     "one HAL server past SNIC capacity at 80 Gbps: the per-packet hot path with LBP diverting",
		servers: 1,
		depth:   45,
		sizes:   trace.MTUOnly,
		build: func(seed int64) (halsim.Config, halsim.RunConfig, error) {
			return halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: seed},
				halsim.RunConfig{Duration: 200 * sim.Millisecond, RateGbps: 80}, nil
		},
		requestedGbps: func(int64) (float64, error) { return 80, nil },
	},
	{
		name:    "hal-hadoop-cxl",
		why:     "bursty Meta hadoop trace, small packets, Count->REM pipeline with Count state on a 2-node CXL fabric",
		servers: 1,
		depth:   75,
		sizes:   trace.Bimodal64_1500,
		build: func(seed int64) (halsim.Config, halsim.RunConfig, error) {
			rates, err := hadoopRates(seed)
			if err != nil {
				return halsim.Config{}, halsim.RunConfig{}, err
			}
			w := halsim.Hadoop
			return halsim.Config{Mode: halsim.HAL, Fn: halsim.Count, Pipeline: halsim.REM, PipelineOn: true,
					Fabric: halsim.NewFabric(halsim.CXL, 2), Seed: seed},
				halsim.RunConfig{Duration: sim.Time(len(rates)) * sim.Millisecond, Workload: &w,
					Epoch: sim.Millisecond, Sizes: trace.Bimodal64_1500()}, nil
		},
		requestedGbps: func(seed int64) (float64, error) {
			rates, err := hadoopRates(seed)
			if err != nil {
				return 0, err
			}
			return hadoopRequestedGbps(rates), nil
		},
	},
	{
		name:    "fleet-1024",
		why:     "1024 HAL servers in 8 pods at 4:1 oversubscription with p2c dispatch: setup, memory, ingress and fabric",
		servers: fleetServers,
		depth:   12813,
		sizes:   trace.MTUOnly,
		build: func(seed int64) (halsim.Config, halsim.RunConfig, error) {
			return halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: seed,
					Cluster: &halsim.ClusterConfig{Servers: fleetServers, Pods: 8, Oversub: 4, Dispatch: "p2c"}},
				halsim.RunConfig{Duration: sim.Millisecond, RateGbps: fleetGbpsPerServer * fleetServers}, nil
		},
		requestedGbps: func(int64) (float64, error) { return fleetGbpsPerServer * fleetServers, nil },
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

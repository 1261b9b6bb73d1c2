package main

import (
	"math"
	"math/rand"
	"time"

	"halsim"
	"halsim/internal/coherence"
	"halsim/internal/core"
	"halsim/internal/dpdk"
	"halsim/internal/eswitch"
	"halsim/internal/packet"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/stats"
)

// Addresses of the microbenchmark packets: a client, the SNIC identity
// and the host identity the director diverts to.
var (
	clientAddr = packet.Addr{MAC: packet.MAC{2, 0, 0, 0, 0, 9}, IP: packet.IPv4{10, 0, 0, 9}}
	snicAddr   = packet.Addr{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.IPv4{10, 0, 0, 1}}
	hostAddr   = packet.Addr{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.IPv4{10, 0, 0, 2}}
)

// microReps is how many timed batches each microbenchmark runs; it reports
// the median batch.
const microReps = 5

// nsPerOp times batch (which performs ops operations) microReps times
// after one untimed warm-up batch and returns the median ns per operation.
func nsPerOp(ops int, batch func()) float64 {
	batch()
	xs := make([]float64, microReps)
	for i := range xs {
		t0 := time.Now()
		batch()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(xs)
}

// layerInputs shapes the microbenchmark inputs after one measured run.
type layerInputs struct {
	wl       *workload
	seed     int64
	res      halsim.Result
	eventGap float64 // simulated ns between engine events in the run
}

// workloadPackets returns n packets with the workload's wire sizes, a
// spread of flows, and the SNIC as destination.
func (in layerInputs) workloadPackets(n int) []*packet.Packet {
	rng := rand.New(rand.NewSource(in.seed))
	sizes := in.wl.sizes()
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		p := packet.New(clientAddr, snicAddr, uint16(rng.Intn(1<<16)), 80, nil)
		p.WireLen = sizes.Sample(rng)
		p.ID = uint64(i)
		pkts[i] = p
	}
	return pkts
}

// simCallNs times Engine.ScheduleCall plus the RunUntil dispatch of one
// event, with the engine holding the workload's pending depth: every
// event schedules its successor, so the depth stays constant.
func (in layerInputs) simCallNs() float64 {
	rng := rand.New(rand.NewSource(in.seed))
	lead := in.eventGap * float64(in.wl.depth) // mean scheduling lead
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = sim.Time(rng.ExpFloat64()*lead) + 1
	}
	eng := sim.NewEngine()
	next := 0
	var call sim.Call
	call = func(any, int64) {
		next++
		eng.ScheduleCall(delays[next&(len(delays)-1)], call, nil, 0)
	}
	for i := 0; i < in.wl.depth; i++ {
		call(nil, 0)
	}
	const events = 200000
	span := sim.Time(events*in.eventGap) + 1
	var ran uint64
	ns := nsPerOp(events, func() {
		before := eng.Processed()
		eng.RunUntil(eng.Now() + span)
		ran = eng.Processed() - before
	})
	// The span holds about `events` events; rescale to the count that ran.
	return ns * events / float64(max(ran, 1))
}

// newInstanceUs times server.NewInstance for one of the workload's
// servers, in microseconds.
func (in layerInputs) newInstanceUs() (float64, error) {
	const n = 8
	cfg, rc, err := in.wl.build(in.seed)
	if err != nil {
		return 0, err
	}
	cfg.Cluster = nil
	us := nsPerOp(n, func() {
		eng := sim.NewEngine()
		pool := packet.NewPool()
		for i := 0; i < n && err == nil; i++ {
			_, err = server.NewInstance(cfg, rc, eng, pool, func(*packet.Packet) {})
		}
	}) / 1e3
	return us, err
}

// routeNs times TrafficDirector.Route at the run's final Fwd_Th and the
// offered rate, so it diverts the share the run diverted.
func (in layerInputs) routeNs() float64 {
	pkts := in.workloadPackets(1024)
	d := core.NewTrafficDirector(hostAddr, in.res.FinalFwdTh)
	d.SetRate(in.res.OfferedGbps)
	return nsPerOp(len(pkts)*64, func() {
		for r := 0; r < 64; r++ {
			for _, p := range pkts {
				d.Route(p)
			}
		}
	})
}

// forwardNs times Switch.Forward under the HAL rule set, with packets
// split between the SNIC and host identities in the run's SNIC share.
func (in layerInputs) forwardNs() float64 {
	pkts := in.workloadPackets(1024)
	rng := rand.New(rand.NewSource(in.seed))
	for _, p := range pkts {
		if rng.Float64() >= in.res.SNICShare {
			p.RewriteDst(hostAddr)
		}
	}
	s := eswitch.New()
	s.ConfigureHAL(snicAddr, hostAddr)
	sink := func(*packet.Packet) {}
	for _, port := range []eswitch.PortID{eswitch.PortWire, eswitch.PortSNIC, eswitch.PortHost} {
		s.Bind(port, sink)
	}
	return nsPerOp(len(pkts)*64, func() {
		for r := 0; r < 64; r++ {
			for _, p := range pkts {
				s.Forward(p)
			}
		}
	})
}

// ringNs times Port.Deliver of one packet plus its share of the
// RxQueue.BurstInto polls that drain the rings 32 at a time.
func (in layerInputs) ringNs() float64 {
	pkts := in.workloadPackets(1024)
	const queues = 8
	port := dpdk.NewPort(queues, dpdk.DefaultRingSize)
	buf := make([]*packet.Packet, 0, dpdk.DefaultBurst)
	return nsPerOp(len(pkts)*64, func() {
		for r := 0; r < 64; r++ {
			for i, p := range pkts {
				port.Deliver(p)
				if i%dpdk.DefaultBurst == dpdk.DefaultBurst-1 {
					for q := 0; q < queues; q++ {
						buf = port.Queue(q).BurstInto(buf[:0], dpdk.DefaultBurst)
					}
				}
			}
		}
	})
}

// poolNs times one Pool.Get and Pool.Put pair with the run's in-flight
// population held live.
func (in layerInputs) poolNs() float64 {
	pl := packet.NewPool()
	live := make([]*packet.Packet, 256)
	for i := range live {
		live[i] = pl.Get(clientAddr, snicAddr, uint16(i), 80, nil)
	}
	const ops = 1 << 16
	return nsPerOp(ops, func() {
		for i := 0; i < ops; i++ {
			j := i & (len(live) - 1)
			pl.Put(live[j])
			live[j] = pl.Get(clientAddr, snicAddr, uint16(i), 80, nil)
		}
	})
}

// recordNs times Histogram.Record with latencies spread log-uniformly
// between the run's p50 and p999.
func (in layerInputs) recordNs() float64 {
	rng := rand.New(rand.NewSource(in.seed))
	lo, hi := in.res.P50us*1e3, in.res.P999us*1e3
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(lo * math.Pow(hi/lo, rng.Float64()))
	}
	h := stats.NewHistogram()
	return nsPerOp(len(vals)*16, func() {
		for r := 0; r < 16; r++ {
			for _, v := range vals {
				h.Record(v)
			}
		}
	})
}

// writeNs times Directory.Write on a 2-node directory: two agents writing
// a shared set of state lines, as Count does from the SNIC and the host.
func (in layerInputs) writeNs() float64 {
	rng := rand.New(rand.NewSource(in.seed))
	type access struct {
		node coherence.NodeID
		line uint64
	}
	acc := make([]access, 4096)
	for i := range acc {
		acc[i] = access{coherence.NodeID(rng.Intn(2)), uint64(rng.Intn(1024))}
	}
	d := coherence.NewDirectory(2)
	return nsPerOp(len(acc)*16, func() {
		for r := 0; r < 16; r++ {
			for _, a := range acc {
				d.Write(a.node, a.line)
			}
		}
	})
}

// Package cluster runs a fleet of complete SNIC+host servers behind one
// shared ingress and a modeled top-of-rack fabric. The ingress generates
// and dispatches traffic, every server is a full instance (HLB, faults,
// power model and all), and requests and responses cross the fabric's
// wire links; all of it runs on one event engine. Telemetry stays a
// read-only observer.
package cluster

import (
	"fmt"

	"halsim/internal/energy"
	"halsim/internal/fault"
	"halsim/internal/packet"
	"halsim/internal/server"
	"halsim/internal/sim"
)

// seedStride spaces per-server RNG streams: server i runs with the base
// seed offset by (i+1)*seedStride, so no two servers (or the ingress,
// which keeps the base seed's streams) share a stream.
const seedStride = 1009

// crun is one cluster run.
type crun struct {
	cfg server.Config
	cc  server.ClusterConfig
	rc  server.RunConfig

	eng   *sim.Engine
	pool  *packet.Pool
	insts []*server.Instance

	src  *server.TrafficSource
	disp dispatcher
	fab  *fabric

	// Ingress state.
	outstanding []int64  // per server, requests dispatched and not yet answered
	totalPkts   []uint64 // per server, all-time dispatched
	totalB      []uint64
	sentPkts    []uint64 // per server, post-warmup dispatched
	sentB       []uint64
	m           server.Meter // round trips close here
	tickers     []*sim.Ticker
	reqCalls    []sim.Call
	respCall    sim.Call
	upCall      sim.Call

	// Fleet-wide telemetry: one sampler over every server, nil when off.
	smp     *server.Sampler
	telStop bool
}

// Run executes a fleet described by cfg.Cluster. The returned Result is
// the aggregate: summed throughput, power and conservation ledger; fleet
// latency percentiles observed at the shared ingress (fabric round trip
// included); mean Fwd_Th and utilization across servers.
func Run(cfg server.Config, rc server.RunConfig) (server.Result, error) {
	c, err := newRun(cfg, rc)
	if err != nil {
		return server.Result{}, err
	}
	c.start()
	c.run()
	return c.collect(), nil
}

// newRun validates cfg and rc and builds the fleet, ready to start.
func newRun(cfg server.Config, rc server.RunConfig) (*crun, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("cluster: Config.Cluster is nil")
	}
	if cfg.Faults != nil {
		return nil, fmt.Errorf("cluster: per-server fault plans are not supported; use Cluster.Crashes")
	}
	if cfg.Telemetry.TraceEvery > 0 {
		return nil, fmt.Errorf("cluster: packet tracing (Telemetry.TraceEvery) is not supported for fleets")
	}
	if err := server.Normalize(&cfg, &rc); err != nil {
		return nil, err
	}
	cc, err := cfg.Cluster.WithDefaults(rc.Duration)
	if err != nil {
		return nil, err
	}
	c := &crun{cfg: cfg, cc: cc, rc: rc}
	if err := c.build(); err != nil {
		return nil, err
	}
	return c, nil
}

// build wires the engine, pool, instances, ingress and telemetry.
func (c *crun) build() error {
	n := c.cc.Servers
	c.eng = sim.NewEngine()
	c.pool = packet.NewPool()

	// Server instances. Each gets its own seed spacing and — when crashed
	// — a private fault plan driving both-side Rx blackout windows.
	c.fab = newFabric(n, clusterShape{
		wireNS:      c.cc.WireNS,
		spineWireNS: c.cc.SpineWireNS,
		linkGbps:    c.cc.LinkGbps,
		pods:        c.cc.Pods,
		oversub:     c.cc.Oversub,
	})
	c.reqCalls = make([]sim.Call, n)
	for i := 0; i < n; i++ {
		icfg := c.cfg
		icfg.Cluster = nil
		icfg.Seed = c.cfg.Seed + int64(i+1)*seedStride
		if plan := c.crashPlan(i, icfg.Seed); plan != nil {
			icfg.Faults = plan
		}
		srv := i
		inst, err := server.NewInstance(icfg, c.rc, c.eng, c.pool, func(p *packet.Packet) {
			c.respond(srv, p)
		})
		if err != nil {
			return fmt.Errorf("cluster: server %d: %w", i, err)
		}
		c.insts = append(c.insts, inst)
		c.reqCalls[i] = func(a any, _ int64) {
			inst.Ingress(a.(*packet.Packet), c.eng.Now())
		}
	}

	// Ingress: dispatch policy, in-flight counts, measurement.
	c.disp = newDispatcher(c.cc.Dispatch, n, c.cfg.Seed+23)
	c.outstanding = make([]int64, n)
	c.totalPkts = make([]uint64, n)
	c.totalB = make([]uint64, n)
	c.sentPkts = make([]uint64, n)
	c.sentB = make([]uint64, n)
	// Both response handlers carry the answering server as the event's
	// scalar, so the ingress needs no per-request table.
	c.respCall = func(a any, srv int64) { c.deliver(a.(*packet.Packet), int(srv)) }
	// upCall finishes a podded response's trip at the ingress: it fires
	// at the ToR-arrival instant, serializes the frame onto the pod's
	// upstream uplink and schedules the final delivery.
	c.upCall = func(a any, srv int64) {
		p := a.(*packet.Packet)
		arr := c.fab.podUp(int(srv), c.eng.Now(), p.WireLen)
		c.eng.AtCall(arr, c.respCall, p, srv)
	}
	src, err := server.NewTrafficSource(c.cfg, c.rc, c.eng, c.pool, c.dispatch)
	if err != nil {
		return err
	}
	c.src = src
	c.smp = server.NewSampler(c.eng, c.cfg.Telemetry, src, c.insts)
	return nil
}

// crashPlan compiles server i's blackout windows into a fault plan: both
// Rx sides drop everything for each window, as if the NIC lost link.
func (c *crun) crashPlan(i int, seed int64) *fault.Plan {
	var plan *fault.Plan
	for _, cr := range c.cc.Crashes {
		if cr.Server != i {
			continue
		}
		if plan == nil {
			plan = fault.NewPlan(seed)
		}
		plan.DropSNICRx(cr.At, cr.At+cr.For, 1).
			DropHostRx(cr.At, cr.At+cr.For, 1)
	}
	return plan
}

// start registers every periodic process and begins offering traffic.
func (c *crun) start() {
	for _, inst := range c.insts {
		inst.Start()
	}

	// The fleet's MaxGbps windows and rate series count request wire
	// bytes as their responses reach the ingress.
	c.m.Start(c.eng, c.rc, c.smp, func(period sim.Time, fn func()) {
		c.tickers = append(c.tickers, c.eng.Every(period, fn))
	})

	// Telemetry tick, offset one nanosecond past the period so the tick
	// never shares an instant with the servers' own periodic work (all of
	// which runs at whole-period multiples).
	if c.smp != nil {
		period := c.cfg.Telemetry.WithDefaults().TimelinePeriod
		var tick sim.Call
		tick = func(any, int64) {
			if c.telStop {
				return
			}
			c.smp.Sample()
			c.eng.ScheduleCall(period, tick, nil, 0)
		}
		c.eng.AtCall(period+1, tick, nil, 0)
	}

	c.src.Start()
}

// run advances the fleet to Duration (and through the drain when asked).
func (c *crun) run() {
	c.eng.RunUntil(c.rc.Duration)
	if c.rc.Drain {
		c.stopOffering()
		c.eng.Run()
	}
}

// stopOffering ends traffic and cancels every periodic process so the
// event population can empty.
func (c *crun) stopOffering() {
	c.src.Stop()
	for _, t := range c.tickers {
		t.Cancel()
	}
	for _, inst := range c.insts {
		inst.CancelTickers()
	}
	c.telStop = true
}

// dispatch is the ingress's emit hook: pick a server, account the offered
// packet, serialize it onto that server's down-link and send it across
// the fabric. at is the arrival instant at the ingress (burst coalescing
// may place it ahead of the clock).
func (c *crun) dispatch(p *packet.Packet, at sim.Time) {
	i := c.disp.pick(c.outstanding)
	c.totalPkts[i]++
	c.totalB[i] += uint64(p.WireLen)
	if sim.Time(p.CreatedAt) >= c.rc.Warmup {
		c.sentPkts[i]++
		c.sentB[i] += uint64(p.WireLen)
	}
	c.outstanding[i]++
	arr := c.fab.down(i, at, p.WireLen)
	c.eng.AtCall(arr, c.reqCalls[i], p, 0)
}

// respond carries a finished response from server srv back over the
// fabric's up-link to the ingress, at the response's egress instant. In a
// podded fleet the server link only reaches the pod ToR; the pod-uplink
// serialization then runs as a separate event (upCall) at the ToR-arrival
// instant.
func (c *crun) respond(srv int, p *packet.Packet) {
	arr := c.fab.up(srv, c.eng.Now(), p.WireLen)
	call := c.respCall
	if c.fab.pods > 1 {
		call = c.upCall
	}
	c.eng.AtCall(arr, call, p, int64(srv))
}

// deliver closes one round trip at the ingress: server srv's in-flight
// count is settled and the meter takes the request's bytes (carried back
// on the response as ReqLen) and the round trip.
func (c *crun) deliver(p *packet.Packet, srv int) {
	created := sim.Time(p.CreatedAt)
	c.outstanding[srv]--
	c.m.AddBytes(created, int(p.ReqLen))
	c.m.AddRTT(created, int64(c.eng.Now())-p.CreatedAt)
	c.pool.Put(p)
}

// collect aggregates per-server Results and the ingress's own
// measurements into one fleet Result.
func (c *crun) collect() server.Result {
	totalP, _, sentP, sentB := c.src.Offered()
	measured := c.rc.Duration - c.rc.Warmup

	res := server.Result{Mode: c.cfg.Mode, Fn: c.cfg.Fn, Sent: sentP}
	if measured > 0 {
		res.OfferedGbps = float64(sentB) * 8 / float64(measured)
	}

	// Per-server collection. Offered counters are installed from the
	// ingress's dispatch ledger first so each server's own conservation
	// audit closes.
	sub := make([]server.Result, len(c.insts))
	for i, inst := range c.insts {
		inst.SetOffered(c.totalPkts[i], c.totalB[i], c.sentPkts[i], c.sentB[i])
		sub[i] = inst.Collect()
	}
	var snicShareNum float64
	nHAL := 0
	res.FailoverTicks = -1
	for _, r := range sub {
		res.AvgGbps += r.AvgGbps
		res.AvgPowerW += r.AvgPowerW
		res.HostActiveW += r.HostActiveW
		res.SNICActiveW += r.SNICActiveW
		res.Wakeups += r.Wakeups
		res.LBPAdjustments += r.LBPAdjustments
		res.LBPHolds += r.LBPHolds
		res.FuncErrors += r.FuncErrors
		res.CoherenceRemote += r.CoherenceRemote
		res.CompletedAll += r.CompletedAll
		res.DroppedAll += r.DroppedAll
		res.FaultDrops += r.FaultDrops
		res.Requeued += r.Requeued
		res.CoreCrashes += r.CoreCrashes
		res.FaultEvents += r.FaultEvents
		res.SNICUtil += r.SNICUtil
		res.HostUtil += r.HostUtil
		snicShareNum += r.SNICShare * r.AvgGbps
		if r.FinalFwdTh > 0 {
			res.FinalFwdTh += r.FinalFwdTh
			nHAL++
		}
		if r.FailoverTicks > res.FailoverTicks {
			res.FailoverTicks = r.FailoverTicks
		}
	}
	if nHAL > 0 {
		res.FinalFwdTh /= float64(nHAL)
	}
	if n := len(sub); n > 0 {
		res.SNICUtil /= float64(n)
		res.HostUtil /= float64(n)
	}
	if res.AvgGbps > 0 {
		res.SNICShare = snicShareNum / res.AvgGbps
	}
	res.IdleW = res.AvgPowerW - res.HostActiveW - res.SNICActiveW
	res.EffGbpsPerW = energy.EfficiencyGbpsPerWatt(res.AvgGbps, res.AvgPowerW)
	c.m.Fill(&res)
	res.SentAll = totalP
	res.InFlightEnd = int64(res.SentAll) - int64(res.CompletedAll) - int64(res.DroppedAll)
	if sentP > 0 {
		res.DropFraction = float64(res.DroppedAll) / float64(sentP)
	}

	// Phases: latency closes at the ingress, throughput/power on the
	// servers.
	for i := range res.Phases {
		ph := &res.Phases[i]
		for _, r := range sub {
			if i < len(r.Phases) {
				ph.AvgGbps += r.Phases[i].AvgGbps
				ph.AvgPowerW += r.Phases[i].AvgPowerW
				ph.Completed += r.Phases[i].Completed
			}
		}
		ph.EffGbpsPerW = energy.EfficiencyGbpsPerWatt(ph.AvgGbps, ph.AvgPowerW)
	}

	ws := c.eng.WheelStats()
	res.Prof = &ws
	if c.smp != nil {
		c.smp.Finish(&res)
	}
	return res
}

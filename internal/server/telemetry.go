package server

import (
	"halsim/internal/sim"
	"halsim/internal/telemetry"
)

// Telemetry integration. Every hook on the packet path is a nil-checked
// struct field (run.tr / Meter.tl / station.tr), never an interface call, so
// a run with Config.Telemetry zeroed executes the exact event sequence and
// allocation profile it did before the telemetry layer existed. The
// collectors only read simulator state — cumulative counters, queue
// occupancies, policy registers — and keep their own window deltas, so
// enabling them cannot perturb Result either (TestGoldenDeterminism holds
// byte-for-byte with telemetry on).

// telMetrics holds the run's registry handles. Registration happens once at
// build time; publication once per sample tick and once at run end — never
// per packet.
type telMetrics struct {
	reg *telemetry.Registry

	fwdTh, rateRx, rateFwd, snicTP       telemetry.MetricID
	snicGbps, hostGbps                   telemetry.MetricID
	snicOcc, hostOcc, snicBusy, hostBusy telemetry.MetricID
	powerW                               telemetry.MetricID
	sent, completed, dropped, faultDrops telemetry.MetricID
	events                               telemetry.MetricID
}

func newTelMetrics(reg *telemetry.Registry) *telMetrics {
	return &telMetrics{
		reg:     reg,
		fwdTh:   reg.Gauge("halsim_fwd_th_gbps", "LBP forwarding threshold Fwd_Th"),
		rateRx:  reg.Gauge("halsim_rate_rx_gbps", "traffic monitor arrival rate Rate_Rx"),
		rateFwd: reg.Gauge("halsim_rate_fwd_gbps", "host-diverted rate Rate_Fwd = max(0, Rate_Rx - Fwd_Th)"),
		snicTP:  reg.Gauge("halsim_snic_tp_gbps", "LBP's SNIC throughput estimate SNIC_TP"),

		snicGbps: reg.Gauge("halsim_snic_delivered_gbps", "SNIC-side delivered rate over the last sample tick"),
		hostGbps: reg.Gauge("halsim_host_delivered_gbps", "host-side delivered rate over the last sample tick"),

		snicOcc:  reg.Gauge("halsim_snic_rx_occupancy_max", "max SNIC Rx-ring occupancy (LBP watermark input)"),
		hostOcc:  reg.Gauge("halsim_host_rx_occupancy_max", "max host Rx-ring occupancy"),
		snicBusy: reg.Gauge("halsim_snic_busy_cores", "SNIC cores mid-service"),
		hostBusy: reg.Gauge("halsim_host_busy_cores", "host cores mid-service"),

		powerW: reg.Gauge("halsim_power_w", "instantaneous wall power"),

		sent:       reg.Counter("halsim_packets_sent_total", "packets offered by the client (warmup included)"),
		completed:  reg.Counter("halsim_packets_completed_total", "packets fully processed"),
		dropped:    reg.Counter("halsim_packets_dropped_total", "Rx-ring tail drops"),
		faultDrops: reg.Counter("halsim_fault_drops_total", "packets lost to injected faults or dead stations"),
		events:     reg.Counter("halsim_engine_events_total", "discrete events executed"),
	}
}

// publish pushes one sample's values into the registry. sent and events
// are running totals (the sample's Events is the per-tick delta).
func (m *telMetrics) publish(s telemetry.Sample, sent, events uint64) {
	m.reg.Set(m.fwdTh, s.FwdThGbps)
	m.reg.Set(m.rateRx, s.RateRxGbps)
	m.reg.Set(m.rateFwd, s.RateFwdGbps)
	m.reg.Set(m.snicTP, s.SNICTPGbps)
	m.reg.Set(m.snicGbps, s.SNICGbps)
	m.reg.Set(m.hostGbps, s.HostGbps)
	m.reg.Set(m.snicOcc, float64(s.SNICOccMax))
	m.reg.Set(m.hostOcc, float64(s.HostOccMax))
	m.reg.Set(m.snicBusy, float64(s.SNICBusy))
	m.reg.Set(m.hostBusy, float64(s.HostBusy))
	m.reg.Set(m.powerW, s.PowerW)
	m.reg.Set(m.sent, float64(sent))
	m.reg.Set(m.completed, float64(s.Completed))
	m.reg.Set(m.dropped, float64(s.Drops))
	m.reg.Set(m.faultDrops, float64(s.FaultDrops))
	m.reg.Set(m.events, float64(events))
}

// buildTelemetry builds the run's sampler (nil when Config.Telemetry is
// zero) and threads its tracer into the stations. The client must exist:
// its offered count is the sampler's sent counter.
func (r *run) buildTelemetry() {
	r.smp = newSampler(r.eng, r.cfg.Telemetry, r.cli, r)
	if r.smp == nil {
		return
	}
	if tr := r.smp.col.Tracer; tr != nil {
		r.tr = tr
		r.snic.first.tr, r.snic.first.telID = tr, telemetry.StSNIC
		r.host.first.tr, r.host.first.telID = tr, telemetry.StHost
		if r.snic.second != nil {
			r.snic.second.tr, r.snic.second.telID = tr, telemetry.StSNIC2
		}
		if r.host.second != nil {
			r.host.second.tr, r.host.second.telID = tr, telemetry.StHost2
		}
		if r.slbFwd != nil {
			r.slbFwd.tr, r.slbFwd.telID = tr, telemetry.StSLBFwd
		}
	}
}

// Sampler is the telemetry tick of one server or of a whole fleet. Each
// Sample folds every server's state into one telemetry.Sample — rates,
// queues, busy cores, drops, completions and power summed, ring
// occupancies maxed, Fwd_Th and SNIC_TP averaged over the servers that
// have control state — then pushes it onto the timeline and publishes it
// to the registry. Reads only: the simulation cannot observe that it ran.
type Sampler struct {
	eng        *sim.Engine
	col        *telemetry.Collector
	tm         *telMetrics
	cli        *client // offered traffic: the server's own client or the fleet's source
	runs       []*run
	period     sim.Time
	prevEvents uint64
}

// newSampler builds the sampler over runs, or returns nil when tcfg asks
// for nothing.
func newSampler(eng *sim.Engine, tcfg telemetry.Config, cli *client, runs ...*run) *Sampler {
	col := telemetry.New(tcfg)
	if col == nil {
		return nil
	}
	return &Sampler{eng: eng, col: col, tm: newTelMetrics(col.Registry), cli: cli, runs: runs,
		period: tcfg.WithDefaults().TimelinePeriod}
}

// NewSampler builds a fleet's sampler over insts, counting src's offered
// packets as sent; nil when tcfg asks for nothing. A fleet has no packet
// tracer, so tcfg must not ask for one.
func NewSampler(eng *sim.Engine, tcfg telemetry.Config, src *TrafficSource, insts []*Instance) *Sampler {
	runs := make([]*run, len(insts))
	for i, inst := range insts {
		runs[i] = inst.r
	}
	return newSampler(eng, tcfg, src.c, runs...)
}

// Sample takes one sample at the engine clock.
func (sp *Sampler) Sample() {
	s := telemetry.Sample{T: sp.eng.Now()}
	nctl := 0
	for _, r := range sp.runs {
		if r.addSample(&s, sp.period) {
			nctl++
		}
	}
	if nctl > 0 {
		s.FwdThGbps /= float64(nctl)
		s.SNICTPGbps /= float64(nctl)
	}
	ev := sp.eng.Processed()
	s.Events = ev - sp.prevEvents
	sp.prevEvents = ev
	if sp.col.Timeline != nil {
		sp.col.Timeline.Push(s)
	}
	sp.tm.publish(s, sp.cli.totalPkts, ev)
}

// Finish hands the collectors to res, publishes the timing wheel's
// counters and takes a final sample, so the registry covers the whole run
// (a trailing partial tick or a drain phase included).
func (sp *Sampler) Finish(res *Result) {
	res.Timeline, res.Trace, res.Metrics = sp.col.Timeline, sp.col.Tracer, sp.col.Registry
	reg, ws := sp.col.Registry, sp.eng.WheelStats()
	reg.Set(reg.Counter("halsim_wheel_cascades_total", "timing-wheel level cascades"), float64(ws.Cascades))
	reg.Set(reg.Counter("halsim_wheel_overflow_total", "timing-wheel overflow-heap inserts"), float64(ws.Overflow))
	reg.Set(reg.Gauge("halsim_wheel_slab_high_water", "event-slab high water"), float64(ws.SlabHighWater))
	sp.Sample()
}

// addSample folds this server's state into sm: sums for rates, queues,
// busy cores, drops, completions and power; max for ring occupancies.
// FwdThGbps and SNICTPGbps are summed too, for the sampler to average;
// the result reports whether this server has control state to average.
// It writes only the per-side byte marks the delivered rates are taken
// against.
func (r *run) addSample(sm *telemetry.Sample, period sim.Time) bool {
	hasCtl := false
	switch {
	case r.hal != nil:
		hasCtl = true
		sm.FwdThGbps += r.hal.Director.FwdTh()
		sm.RateRxGbps += r.hal.Director.RateGbps()
		sm.RateFwdGbps += r.hal.Director.RateFwdGbps()
		sm.SNICTPGbps += r.hal.Policy.SNICTPGbps()
	case r.slbDir != nil:
		hasCtl = true
		sm.FwdThGbps += r.slbDir.FwdTh()
		sm.RateRxGbps += r.slbDir.RateGbps()
		sm.RateFwdGbps += r.slbDir.RateFwdGbps()
	}

	// Per-side delivered rate over the tick window, from cumulative station
	// counters (the power sampler's windows stay untouched). Stage 2
	// re-serves stage 1's bytes, so stage 1 alone counts a side.
	snicB, hostB := r.snic.first.bytesDone, r.host.first.bytesDone
	sm.SNICGbps += float64(snicB-r.telPrevSNICB) * 8 / float64(period)
	sm.HostGbps += float64(hostB-r.telPrevHostB) * 8 / float64(period)
	r.telPrevSNICB, r.telPrevHostB = snicB, hostB

	for _, st := range [...]*station{r.snic.first, r.snic.second} {
		if st != nil {
			sm.SNICOccMax = max(sm.SNICOccMax, st.port.MaxOccupancy())
			sm.SNICBacklog += st.port.TotalBacklog()
			sm.SNICBusy += st.busyCores()
		}
	}
	for _, st := range [...]*station{r.host.first, r.host.second} {
		if st != nil {
			sm.HostOccMax = max(sm.HostOccMax, st.port.MaxOccupancy())
			sm.HostBacklog += st.port.TotalBacklog()
			sm.HostBusy += st.busyCores()
		}
	}
	// The SLB's forwarding cores sit on the SNIC in SLB mode and on the
	// host in SLB-host mode; their backlog belongs to that side.
	if r.slbFwd != nil {
		side, busy := &sm.SNICBacklog, &sm.SNICBusy
		if r.cfg.Mode == SLBHost {
			side, busy = &sm.HostBacklog, &sm.HostBusy
		}
		*side += r.slbFwd.port.TotalBacklog()
		*busy += r.slbFwd.busyCores()
	}

	for _, st := range [...]*station{r.snic.first, r.host.first, r.snic.second, r.host.second, r.slbFwd} {
		if st != nil {
			sm.Drops += st.port.TotalDrops()
			sm.FaultDrops += st.port.TotalFaultDrops() + st.faultDrops
		}
	}
	sm.Completed += r.completed
	sm.PowerW += r.power.LastWatts()
	sm.HostPowerW += r.powerHost.LastWatts()
	sm.SNICPowerW += r.powerSNIC.LastWatts()
	return hasCtl
}

package server

import (
	"halsim/internal/sim"
	"halsim/internal/stats"
	"halsim/internal/telemetry"
)

// Meter measures the response side of a run, the part a client sees come
// back: the round-trip latency histogram (packets created after warmup),
// one latency histogram per phase, the best delivered-rate window behind
// MaxGbps and the delivered-rate series. A standalone run feeds it bytes
// at completion and round trips at client delivery; a fleet feeds both at
// the shared ingress. It is a plain value: callers keep it as a struct
// field, so the per-packet feeds are direct field updates.
type Meter struct {
	warmup     sim.Time
	lat        *stats.Histogram
	tl         *telemetry.Timeline // per-tick p99 window; nil when off
	phases     []phaseAcc
	winB       int64 // MaxGbps window accumulator
	winMaxGbps float64
	rateWinB   int64 // RateSeries window accumulator
	rateWindow sim.Time
	rateSeries []float64
}

// phaseAcc accumulates one phase's signals while the run executes. The
// meter owns hist; a standalone run also fills bytes, completed and the
// power samples, which a fleet sums from its servers instead.
type phaseAcc struct {
	start, end sim.Time
	hist       *stats.Histogram
	powerWSum  float64
	powerN     uint64
	bytes      uint64 // delivered bytes
	completed  uint64
}

// Start sizes the meter for rc (normalized) and registers its periodic
// processes through every: the rate-series window when rc.RateWindow is
// set, then the MaxGbps window. smp, when non-nil, also receives every
// round trip on its timeline.
func (m *Meter) Start(eng *sim.Engine, rc RunConfig, smp *Sampler, every func(sim.Time, func())) {
	m.warmup = rc.Warmup
	m.lat = stats.NewHistogram()
	if smp != nil {
		m.tl = smp.col.Timeline
	}
	// Phase boundaries are [0, marks..., Duration].
	if len(rc.PhaseMarks) > 0 {
		bounds := append([]sim.Time{0}, rc.PhaseMarks...)
		bounds = append(bounds, rc.Duration)
		for i := 0; i+1 < len(bounds); i++ {
			m.phases = append(m.phases, phaseAcc{
				start: bounds[i], end: bounds[i+1], hist: stats.NewHistogram(),
			})
		}
	}
	// Delivered-rate time series (recovery analysis for fault runs).
	if m.rateWindow = rc.RateWindow; m.rateWindow > 0 {
		every(m.rateWindow, func() {
			m.rateSeries = append(m.rateSeries, float64(m.rateWinB)*8/float64(m.rateWindow))
			m.rateWinB = 0
		})
	}
	// Delivered-rate windows for MaxGbps. Constant-rate runs use 10 ms;
	// trace runs use the epoch so a one-epoch burst registers at its
	// actual rate instead of being averaged away — this is what makes
	// "max throughput" differ between a ~90G host and a ~100G HAL.
	window := 10 * sim.Millisecond
	if rc.Workload != nil {
		window = rc.Epoch
	}
	every(window, func() {
		winB := m.winB
		m.winB = 0
		if eng.Now() <= m.warmup {
			return
		}
		if g := float64(winB) * 8 / float64(window); g > m.winMaxGbps {
			m.winMaxGbps = g
		}
	})
}

// AddBytes counts n delivered bytes of a packet created at created: all
// of them toward the rate series (the recovery signal needs the warmup
// windows too), post-warmup ones toward the MaxGbps window.
func (m *Meter) AddBytes(created sim.Time, n int) {
	m.rateWinB += int64(n)
	if created >= m.warmup {
		m.winB += int64(n)
	}
}

// AddRTT records the round trip of a packet created at created: into its
// phase, into the run's histogram when created after warmup, and into
// the timeline's current tick.
func (m *Meter) AddRTT(created sim.Time, rtt int64) {
	if ph := m.phaseAt(created); ph != nil {
		ph.hist.Record(rtt)
	}
	if created >= m.warmup {
		m.lat.Record(rtt)
	}
	if m.tl != nil {
		m.tl.RecordLatency(rtt)
	}
}

// phaseAt returns the accumulator whose [start, end) window contains t,
// or nil when phases are off or t falls past the last boundary.
func (m *Meter) phaseAt(t sim.Time) *phaseAcc {
	for i := range m.phases {
		if t >= m.phases[i].start && t < m.phases[i].end {
			return &m.phases[i]
		}
	}
	return nil
}

// Fill writes the meter's figures into res: Completed and the latency
// percentiles, MaxGbps (never below res.AvgGbps, so set that first), the
// rate series, and one PhaseStats per phase with its bounds and p99. The
// caller adds each phase's throughput, power and completions.
func (m *Meter) Fill(res *Result) {
	res.Completed = m.lat.Count()
	res.P50us = float64(m.lat.P50()) / 1000
	res.P99us = float64(m.lat.P99()) / 1000
	res.P999us = float64(m.lat.P999()) / 1000
	res.MaxGbps = m.winMaxGbps
	if res.MaxGbps < res.AvgGbps {
		res.MaxGbps = res.AvgGbps
	}
	res.RateSeries, res.RateWindow = m.rateSeries, m.rateWindow
	for _, ph := range m.phases {
		res.Phases = append(res.Phases, PhaseStats{
			Start: ph.start, End: ph.end, P99us: float64(ph.hist.P99()) / 1000,
		})
	}
}

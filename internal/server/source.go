package server

import (
	"halsim/internal/nf"
	"halsim/internal/packet"
	"halsim/internal/sim"
)

// TrafficSource is the run's client exposed for a cluster ingress: the
// same Poisson/trace arrival process, burst coalescing, size draws and
// mix tagging a standalone server sees, but emitting into the cluster's
// dispatch instead of a local eSwitch. Packet IDs, payloads and stamps
// are drawn exactly as in a single-server run with the same seed.
type TrafficSource struct {
	c *client
}

// Normalize applies the server package's defaults and validation to a
// cluster's shared Config/RunConfig (warmup, sizes, epoch, horizons) so
// the cluster runner and every embedded instance agree on them.
func Normalize(cfg *Config, rc *RunConfig) error { return prepare(cfg, rc) }

// NewTrafficSource builds the shared-ingress traffic source on the given
// (ingress) engine and pool. cfg/rc must be normalized. emit receives
// each request at its arrival instant, which burst coalescing may place
// ahead of the engine clock.
func NewTrafficSource(cfg Config, rc RunConfig, eng *sim.Engine, pool *packet.Pool, emit func(*packet.Packet, sim.Time)) (*TrafficSource, error) {
	_, gen, err := nf.New(cfg.Fn, cfg.FnConfig)
	if err != nil {
		return nil, err
	}
	var genAlt nf.RequestGen
	if cfg.MixOn {
		_, genAlt, err = nf.New(cfg.MixFn, "")
		if err != nil {
			return nil, err
		}
	}
	c, err := newClient(cfg, rc, eng, pool, gen, genAlt, emit)
	if err != nil {
		return nil, err
	}
	return &TrafficSource{c: c}, nil
}

// Start begins offering traffic.
func (s *TrafficSource) Start() { s.c.start() }

// Stop ends the arrival process (idempotent).
func (s *TrafficSource) Stop() { s.c.stop() }

// Offered reports the all-time and post-warmup offered totals.
func (s *TrafficSource) Offered() (totalPkts, totalBytes, sentPkts, sentBytes uint64) {
	return s.c.totalPkts, s.c.totalBytes, s.c.sentPkts, s.c.sentBytes
}

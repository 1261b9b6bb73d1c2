// Command perfbench is the repository benchmark: it runs halsim.Run on
// one named workload on the serial engine and prints host-side end-to-end
// metrics, or, with -trace 1, per-layer metrics from a profiled run. The
// last line of its output is one JSON object; NOTES.md describes the
// workloads and the metrics.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload hal-nat-80g --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"halsim"
	"halsim/internal/sim"
)

// maxProcs caps GOMAXPROCS so garbage-collector parallelism, and with it
// cpu_s, does not depend on how many cores the host has.
const maxProcs = 2

// Set-up is timed at the shortest admissible simulated duration.
const setupDuration sim.Time = 1

const (
	maxSetupReps  = 101
	setupShare    = 0.15 // of the time budget, at most, for set-up repeats
	tracedSetups  = 3    // profiled set-up runs subtracted from the traced runs
	untracedShare = 0.4  // of the time budget for the traced mode's untraced runs
	tracedShare   = 0.85 // of the time budget by which the traced runs end
)

// layerModules are the internal modules that get a self-time metric, plus
// the runtime bucket for samples outside them.
var layerModules = []string{
	"sim", "server", "core", "eswitch", "dpdk", "packet", "stats", "coherence", "cxl",
	"nf", "trace", "platform", "energy", "cluster", "telemetry", "fault", runtimeLayer,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traced int) error {
	wl, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("seconds must be at least 1, got %d", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("trace must be 0 or 1, got %d", traced)
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	b := &bench{wl: wl, seed: seed, budget: time.Duration(seconds) * time.Second,
		start: time.Now(), digests: map[string]string{}}
	fmt.Printf("workload %s (%s), seed %d, budget %ds, GOMAXPROCS %d, %s\n",
		wl.name, wl.why, seed, seconds, runtime.GOMAXPROCS(0), runtime.Version())

	metrics, err := b.endToEnd(traced == 1)
	if err != nil {
		return err
	}
	printMetrics(metrics)
	if traced == 1 {
		if metrics, err = b.perLayer(); err != nil {
			return err
		}
		printMetrics(metrics)
	}
	for _, f := range b.failures {
		fmt.Println("FAILED run:", f)
	}
	rep := report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", k)
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// bench carries one invocation's runs and their failure count.
type bench struct {
	wl      *workload
	seed    int64
	budget  time.Duration
	start   time.Time
	digests map[string]string // first digest per configuration kind

	attempted, failed int
	failures          []string

	// Filled by endToEnd.
	setupS float64
	setups []sample
	fulls  []sample
	first  sample
}

func (b *bench) elapsed() time.Duration { return time.Since(b.start) }

// config returns a fresh configuration: the workload's own, or its
// set-up variant at the shortest duration, optionally with the timeline
// collector on.
func (b *bench) config(setup, timeline bool) (halsim.Config, halsim.RunConfig, error) {
	cfg, rc, err := b.wl.build(b.seed)
	if err != nil {
		return cfg, rc, err
	}
	if setup {
		rc.Duration = setupDuration
	}
	if timeline {
		cfg.Telemetry = halsim.TelemetryConfig{Timeline: true}
	}
	return cfg, rc, nil
}

// measured runs one configuration kind ("setup" or "full") and applies the
// correctness check against the first digest seen for that kind.
func (b *bench) measured(kind string, timeline bool) (sample, error) {
	cfg, rc, err := b.config(kind == "setup", timeline)
	if err != nil {
		return sample{}, err
	}
	s := measure(cfg, rc)
	b.attempted++
	want := b.digests[kind]
	if want == "" && s.err == nil {
		b.digests[kind] = s.digest
	}
	s.check(want, kind == "full")
	if s.failure != "" {
		b.failed++
		b.failures = append(b.failures, fmt.Sprintf("%s run %d: %s", kind, b.attempted, s.failure))
	}
	return s, nil
}

// endToEnd times set-up and whole runs with tracing off. In traced mode it
// leaves part of the budget for the profiled run.
func (b *bench) endToEnd(traced bool) (map[string]metric, error) {
	var err error
	// The process's first run pays one-time initialisation (package-level
	// tables, first heap growth); it is reported apart from setup_s.
	if b.first, err = b.measured("setup", false); err != nil {
		return nil, err
	}
	for len(b.setups) < maxSetupReps &&
		(len(b.setups) < 3 || b.elapsed() < time.Duration(setupShare*float64(b.budget))) {
		s, err := b.measured("setup", false)
		if err != nil {
			return nil, err
		}
		b.setups = append(b.setups, s)
	}
	b.setupS = medianOf(b.setups, func(s sample) float64 { return s.wallS })

	share := 1.0
	if traced {
		share = untracedShare
	}
	end := b.start.Add(time.Duration(share * float64(b.budget)))
	for {
		s, err := b.measured("full", false)
		if err != nil {
			return nil, err
		}
		b.fulls = append(b.fulls, s)
		if time.Now().Add(time.Duration(s.wallS * float64(time.Second))).After(end) {
			break
		}
	}

	res := b.fulls[0].res
	wall := medianOf(b.fulls, func(s sample) float64 { return s.wallS })
	fmt.Printf("runs: 1 first + %d set-up (%v) + %d full (%v simulated)\n",
		len(b.setups), setupDuration, len(b.fulls), b.fullDuration())
	fmt.Printf("simulated: SentAll %d CompletedAll %d DroppedAll %d InFlightEnd %d AvgGbps %.4f P99us %.3f EffGbpsPerW %.5f SNICShare %.5f DropFraction %.6f OfferedGbps %.4f digest %s\n",
		res.SentAll, res.CompletedAll, res.DroppedAll, res.InFlightEnd, res.AvgGbps, res.P99us,
		res.EffGbpsPerW, res.SNICShare, res.DropFraction, res.OfferedGbps, b.fulls[0].digest)
	sw := make([]float64, len(b.setups))
	for i, s := range b.setups {
		sw[i] = s.wallS * 1e3
	}
	sort.Float64s(sw)
	fmt.Printf("set-up wall ms: min %.4f median %.4f max %.4f\n", sw[0], median(sw), sw[len(sw)-1])
	fmt.Printf("full-run wall s:")
	for _, s := range b.fulls {
		fmt.Printf(" %.4f", s.wallS)
	}
	fmt.Println()
	fmt.Printf("first run in process: +%.3f ms, +%.3f MB allocated over a later set-up run (not in setup_s)\n",
		b.firstExtraMs(), b.firstExtraMB())
	return map[string]metric{
		"wall_s":       {wall, "s"},
		"cpu_s":        {medianOf(b.fulls, func(s sample) float64 { return s.cpuS }), "s"},
		"setup_s":      {b.setupS, "s"},
		"ns_per_pkt":   {(wall - b.setupS) * 1e9 / float64(res.SentAll), "ns"},
		"alloc_mb":     {medianOf(b.fulls, func(s sample) float64 { return float64(s.allocB) }) / 1e6, "MB"},
		"peak_heap_mb": {medianOf(b.fulls, func(s sample) float64 { return float64(s.peakB) }) / 1e6, "MB"},
	}, nil
}

func (b *bench) fullDuration() sim.Time {
	_, rc, err := b.wl.build(b.seed)
	if err != nil {
		return 0
	}
	return rc.Duration
}

func (b *bench) firstExtraMs() float64 { return (b.first.wallS - b.setupS) * 1e3 }

func (b *bench) firstExtraMB() float64 {
	return (float64(b.first.allocB) - medianOf(b.setups, func(s sample) float64 { return float64(s.allocB) })) / 1e6
}

// perLayer repeats the workload with the CPU profiler and the timeline
// collector on, attributes profile samples to internal modules, and times
// each layer's hot-path call on inputs shaped like the run.
func (b *bench) perLayer() (map[string]metric, error) {
	var setups []sample
	var runErr error
	setupProf, err := profiled(func() {
		for i := 0; i < tracedSetups && runErr == nil; i++ {
			var s sample
			s, runErr = b.measured("setup", true)
			setups = append(setups, s)
		}
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	// Profiled runs repeat until the traced share of the budget is spent:
	// the profiler's tick is the kernel's, so one run may give few samples.
	var traced []sample
	fullProf := map[string]int64{}
	end := b.start.Add(time.Duration(tracedShare * float64(b.budget)))
	for {
		var tr sample
		p, err := profiled(func() { tr, runErr = b.measured("full", true) })
		if err != nil {
			return nil, err
		}
		if runErr != nil {
			return nil, runErr
		}
		for mod, n := range p {
			fullProf[mod] += n
		}
		traced = append(traced, tr)
		if time.Now().Add(time.Duration(tr.wallS * float64(time.Second))).After(end) {
			break
		}
	}
	res := traced[0].res
	if res.Timeline == nil || res.SentAll == 0 {
		return nil, fmt.Errorf("traced run returned no timeline or sent nothing")
	}
	var events uint64
	for i := 0; i < res.Timeline.Len(); i++ {
		events += res.Timeline.At(i).Events
	}
	if res.Timeline.Truncated > 0 {
		return nil, fmt.Errorf("timeline ring overwrote %d samples; events would be undercounted", res.Timeline.Truncated)
	}
	pkts := float64(res.SentAll)
	untracedWall := medianOf(b.fulls, func(s sample) float64 { return s.wallS })
	nsPerPkt := (untracedWall - b.setupS) * 1e9 / pkts
	tracedSetupS := medianOf(setups, func(s sample) float64 { return s.wallS })
	tracedWall := medianOf(traced, func(s sample) float64 { return s.wallS })
	tracedNsPerPkt := (tracedWall - tracedSetupS) * 1e9 / pkts

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Self time: a traced run's samples minus those of a set-up run,
	// scaled so the modules add up to the traced runs' steady-state ns per
	// packet. Modules outside layerModules, and modules whose set-up
	// samples exceed their whole-run samples, form the remainder.
	steadySamples := func(mod string) float64 {
		return float64(fullProf[mod])/float64(len(traced)) - float64(setupProf[mod])/tracedSetups
	}
	raw := 0.0
	for mod := range fullProf {
		raw += steadySamples(mod)
	}
	sum := 0.0
	for _, mod := range layerModules {
		v := 0.0
		if raw > 0 {
			steady := math.Max(0, steadySamples(mod))
			v = steady / raw * tracedNsPerPkt
		}
		sum += v
		put(mod+".self_ns_per_pkt", v, "ns")
	}
	put("unattributed.ns_per_pkt", tracedNsPerPkt-sum, "ns")
	put("traced.ns_per_pkt", tracedNsPerPkt, "ns")
	put("telemetry.overhead_frac", tracedWall/untracedWall-1, "frac")

	eventsPerPkt := float64(events) / pkts
	put("sim.events_per_pkt", eventsPerPkt, "events/pkt")
	put("sim.ns_per_event", nsPerPkt/eventsPerPkt, "ns")
	in := layerInputs{wl: b.wl, seed: b.seed, res: res, eventGap: float64(b.fullDuration()) / float64(events)}
	put("sim.call_ns", in.simCallNs(), "ns")

	requested, err := b.wl.requestedGbps(b.seed)
	if err != nil {
		return nil, err
	}
	put("server.drop_frac", res.DropFraction, "frac")
	put("server.offered_ratio", res.OfferedGbps/requested, "ratio")
	newUs, err := in.newInstanceUs()
	if err != nil {
		return nil, err
	}
	put("server.new_instance_us", newUs, "us")
	put("core.route_ns", in.routeNs(), "ns")
	put("core.lbp_adjustments", float64(res.LBPAdjustments), "count")
	put("eswitch.forward_ns", in.forwardNs(), "ns")
	put("dpdk.ring_ns", in.ringNs(), "ns")
	put("dpdk.wakeups", float64(res.Wakeups), "count")
	put("packet.pool_ns", in.poolNs(), "ns")
	put("stats.record_ns", in.recordNs(), "ns")
	put("coherence.remote_per_pkt", float64(res.CoherenceRemote)/pkts, "1/pkt")
	put("coherence.write_ns", in.writeNs(), "ns")

	servers := float64(b.wl.servers)
	setupAlloc := medianOf(b.setups, func(s sample) float64 { return float64(s.allocB) })
	put("cluster.heap_kb_per_server", setupAlloc/servers/1e3, "KB")
	put("cluster.setup_us_per_server", b.setupS/servers*1e6, "us")
	put("runtime.gc_cycles", medianOf(b.fulls, func(s sample) float64 { return float64(s.gcs) }), "count")
	put("runtime.alloc_b_per_pkt", medianOf(b.fulls, func(s sample) float64 { return float64(s.allocB) })/pkts, "B/pkt")
	put("runtime.first_run_extra_ms", b.firstExtraMs(), "ms")
	put("runtime.first_run_extra_mb", b.firstExtraMB(), "MB")

	var total int64
	for _, n := range fullProf {
		total += n
	}
	fmt.Printf("traced runs: %d, median wall %.4f s, %d profile samples, %d events over %d timeline samples\n",
		len(traced), tracedWall, total, events, res.Timeline.Len())
	return m, nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

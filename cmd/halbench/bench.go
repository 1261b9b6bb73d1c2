package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"halsim/internal/experiments"
	"halsim/internal/nf"
	"halsim/internal/server"
	"halsim/internal/sim"
)

// benchResult is one measurement row of the BENCH_*.json snapshot.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchSnapshot is the machine-readable artifact the CI bench job uploads;
// diffing two snapshots is the regression check for the hot path.
type benchSnapshot struct {
	Timestamp string `json:"timestamp"`
	Quick     bool   `json:"quick"`
	Seed      int64  `json:"seed"`
	// Repeat is how many times each benchmark was measured; every result
	// row is the fastest of those runs (absent in pre-min-of-N snapshots).
	Repeat    int    `json:"repeat,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	// Execution-environment metadata: GoMaxProcs is the effective
	// parallelism (container quotas included), NumCPU the machine's
	// logical CPU count.
	GoMaxProcs int           `json:"gomaxprocs,omitempty"`
	NumCPU     int           `json:"numcpu,omitempty"`
	Results    []benchResult `json:"results"`
}

// namedBench is one sentinel: a display/snapshot name and its body.
type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// measureBest runs one benchmark repeat times under testing.Benchmark and
// returns the fastest row: min-of-N is the standard noise floor for a
// shared CI machine, so the -baseline gate compares best-case against
// best-case instead of failing on scheduler jitter.
func measureBest(nb namedBench, repeat int) (benchResult, error) {
	var best benchResult
	for rep := 0; rep < repeat; rep++ {
		r := testing.Benchmark(nb.fn)
		if r.N == 0 {
			return best, fmt.Errorf("bench %s: benchmark failed", nb.name)
		}
		br := benchResult{
			Name:        nb.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if rep == 0 || br.NsPerOp < best.NsPerOp {
			best = br
		}
	}
	return best, nil
}

// suite is how a sentinel suite is measured, written and gated: the
// -quick, -benchN, -benchout, -baseline and -baseline-tolerance flags.
type suite struct {
	quick    bool
	repeat   int
	outPath  string
	base     *benchSnapshot // loaded -baseline, nil without one
	basePath string
	tol      float64 // ns/op growth allowed over base, as a fraction
}

// loadBaseline reads the -baseline snapshot and refuses one recorded in
// the other mode: quick and full runs simulate different durations, so
// their ns/op are not comparable.
func (su *suite) loadBaseline() error {
	data, err := os.ReadFile(su.basePath)
	if err != nil {
		return fmt.Errorf("-baseline: %w", err)
	}
	var base benchSnapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("-baseline %s: %w", su.basePath, err)
	}
	if base.Quick != su.quick {
		return fmt.Errorf("-baseline %s was recorded with quick=%v but this run has quick=%v; compare like with like",
			su.basePath, base.Quick, su.quick)
	}
	su.base = &base
	return nil
}

// run measures each benchmark repeat times, keeping the fastest ns/op
// (and that run's B/op and allocs/op), prints one line per benchmark,
// writes the snapshot to outPath (defaultOut without -benchout) and, with
// a baseline, gates it.
func (su *suite) run(benches []namedBench, seed int64, defaultOut string) error {
	repeat := max(su.repeat, 1)
	snap := benchSnapshot{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Quick:      su.quick,
		Seed:       seed,
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

	outPath := su.outPath
	if outPath == "" {
		outPath = defaultOut
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

	if su.base != nil {
		return compareBaseline(snap, *su.base, su.basePath, su.tol)
	}
	return nil
}

// runBenchSuite measures the regression-sentinel benchmarks (the three
// ModeNAT80G modes and the Table V matrix, mirroring bench_test.go) with
// testing.Benchmark and writes a JSON snapshot next to the ASCII summary.
// quick shrinks simulated durations so a CI run finishes in seconds.
func runBenchSuite(opt experiments.Options, su *suite) error {
	runDur := 20 * sim.Millisecond
	t5 := opt
	t5.Duration, t5.TraceDuration = 20*sim.Millisecond, 40*sim.Millisecond
	if su.quick {
		runDur = 5 * sim.Millisecond
		t5.Duration, t5.TraceDuration = 5*sim.Millisecond, 10*sim.Millisecond
	}

	modeBench := func(mode server.Mode) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := server.Run(
					server.Config{Mode: mode, Fn: nf.NAT, Seed: opt.Seed},
					server.RunConfig{Duration: runDur, RateGbps: 80})
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed == 0 {
					b.Fatal("no packets completed")
				}
			}
		}
	}
	table5Bench := func(o experiments.Options) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := experiments.Table5(o)
				if err != nil {
					b.Fatal(err)
				}
				if len(r.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		}
	}
	benches := []namedBench{
		{"ModeNAT80G/SNIC", modeBench(server.SNICOnly)},
		{"ModeNAT80G/Host", modeBench(server.HostOnly)},
		{"ModeNAT80G/HAL", modeBench(server.HAL)},
		{"Table5", table5Bench(t5)},
	}
	return su.run(benches, opt.Seed, fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("20060102T150405Z")))
}

// compareBaseline diffs the fresh snapshot against a stored one: one line
// per shared benchmark with the ns/op, B/op and allocs/op deltas (B/op is
// report-only), then an error if any ns/op grew beyond tol (the
// -baseline-tolerance flag, as a fraction). Allocation growth on the
// pinned-zero benchmarks is always a failure — the zero-alloc hot path is
// a correctness property here, not a performance preference.
func compareBaseline(cur, base benchSnapshot, baselinePath string, tol float64) error {
	if base.GoMaxProcs != 0 && base.GoMaxProcs != cur.GoMaxProcs {
		fmt.Printf("note: baseline GOMAXPROCS=%d, this run GOMAXPROCS=%d\n",
			base.GoMaxProcs, cur.GoMaxProcs)
	}
	baseBy := make(map[string]benchResult, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}

	var regressed []string
	fmt.Printf("vs %s:\n", baselinePath)
	for _, r := range cur.Results {
		b, ok := baseBy[r.Name]
		if !ok {
			fmt.Printf("%-18s (new — no baseline entry)\n", r.Name)
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (r.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		mark := ""
		if delta > tol {
			mark = "  <-- REGRESSION"
			regressed = append(regressed, fmt.Sprintf("%s ns/op %+.1f%%", r.Name, delta*100))
		}
		allocNote := ""
		if b.BytesPerOp > 0 {
			allocNote = fmt.Sprintf("  B/op %+.1f%%", float64(r.BytesPerOp-b.BytesPerOp)/float64(b.BytesPerOp)*100)
		}
		if r.AllocsPerOp != b.AllocsPerOp {
			allocNote += fmt.Sprintf("  allocs %d -> %d", b.AllocsPerOp, r.AllocsPerOp)
			if b.AllocsPerOp == 0 && r.AllocsPerOp > 0 {
				regressed = append(regressed, fmt.Sprintf("%s allocs/op 0 -> %d", r.Name, r.AllocsPerOp))
				mark = "  <-- REGRESSION"
			}
		}
		fmt.Printf("%-18s %14.0f ns/op  %+7.1f%%%s%s\n", r.Name, r.NsPerOp, delta*100, allocNote, mark)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("benchmark regression over %s: %s",
			baselinePath, strings.Join(regressed, "; "))
	}
	fmt.Printf("no regression beyond %.0f%%\n", tol*100)
	return nil
}

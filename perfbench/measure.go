package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"halsim"
)

// sample is one measured run of halsim.Run.
type sample struct {
	res     halsim.Result
	err     error
	wallS   float64
	cpuS    float64
	allocB  uint64
	peakB   uint64
	gcs     uint32
	digest  string
	failure string // why the run failed its check; "" when it passed
}

// measure runs one simulation from a collected heap and records host
// wall time, process CPU time, bytes allocated and the highest in-use heap
// seen while it ran.
func measure(cfg halsim.Config, rc halsim.RunConfig) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	poll := startHeapPoller()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res, err := safeRun(cfg, rc)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	peak := poll.stop()
	runtime.ReadMemStats(&m1)
	return sample{
		res: res, err: err, wallS: wall, cpuS: cpu,
		allocB: m1.TotalAlloc - m0.TotalAlloc,
		peakB:  peak,
		gcs:    m1.NumGC - m0.NumGC,
		digest: digest(res),
	}
}

// safeRun turns a panic inside the simulator into a failed run.
func safeRun(cfg halsim.Config, rc halsim.RunConfig) (res halsim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return halsim.Run(cfg, rc)
}

// check applies the run-failure rules: an error or panic, a packet ledger
// that does not close, no completed packet (measured runs only; a set-up
// run at the shortest duration has no time to complete one), or a
// simulated result that differs from the reference run's.
func (s *sample) check(wantDigest string, mustComplete bool) {
	r := s.res
	switch {
	case s.err != nil:
		s.failure = s.err.Error()
	case r.InFlightEnd < 0 || r.SentAll != r.CompletedAll+r.DroppedAll+uint64(r.InFlightEnd):
		s.failure = fmt.Sprintf("ledger open: sent %d != completed %d + dropped %d + in flight %d",
			r.SentAll, r.CompletedAll, r.DroppedAll, r.InFlightEnd)
	case mustComplete && r.CompletedAll == 0:
		s.failure = "no packet completed"
	case wantDigest != "" && s.digest != wantDigest:
		s.failure = fmt.Sprintf("result digest %s differs from the first run's %s", s.digest, wantDigest)
	}
}

// digest hashes every simulated statistic of a Result. Telemetry
// artifacts are left out: they are observers, and a traced run must
// reproduce the untraced run's digest.
func digest(r halsim.Result) string {
	r.Timeline, r.Trace, r.Metrics, r.Prof = nil, nil, nil, nil
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return hex.EncodeToString(h[:8])
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapPoller samples the in-use heap every millisecond from its own
// goroutine; runtime/metrics reads do not stop the world.
type heapPoller struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func heapInUse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapPoller() *heapPoller {
	p := &heapPoller{done: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if v := heapInUse(s); v > p.peak {
				p.peak = v
			}
			select {
			case <-p.done:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the poller, waits for it, and returns the peak it saw.
func (p *heapPoller) stop() uint64 {
	close(p.done)
	p.wg.Wait()
	if v := heapInUse([]metrics.Sample{{Name: heapObjects}}); v > p.peak {
		p.peak = v
	}
	return p.peak
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

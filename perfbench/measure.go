package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// minTail is the number of samples a percentile needs beyond it.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses a percentile with fewer than minTail samples beyond it, so a
// reported p99 always rests on at least ten slower loads.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	if beyond := float64(len(xs)) * (1 - p); beyond < minTail {
		return 0, fmt.Errorf("p%v of %d samples has %.1f beyond it, need %d", p*100, len(xs), beyond, minTail)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[int(math.Ceil(p*float64(len(s))))-1], nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p99Samples is the fewest samples that leave minTail beyond a p99.
const p99Samples = 100 * minTail

// loopResult is what one closed-loop window measured.
type loopResult struct {
	latMS []float64 // per-load latency, in completion order
	// marks are the elapsed time and process CPU time at the start and
	// after every passLen completions.
	marks   []mark
	failed  int
	elapsed time.Duration
	err     error
}

type mark struct {
	at, cpu time.Duration
}

// closedLoop runs clients loaders, each waiting for its verdict before
// taking the next request index. Once seconds have passed, loaders stop
// taking indexes at the next multiple of passLen, so a run measures
// whole passes. do returns whether the load passed its checks.
func closedLoop(clients, passLen int, seconds float64, do func(i int) bool) loopResult {
	var (
		mu       sync.Mutex
		next     int
		stopping bool
		res      loopResult
		wg       sync.WaitGroup
	)
	dur := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	addMark := func() {
		cpu, err := processCPU()
		res.marks = append(res.marks, mark{time.Since(start), cpu})
		if err != nil && res.err == nil {
			res.err = err
		}
	}
	addMark()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stopping && time.Since(start) >= dur {
			stopping = true
		}
		if stopping && next%passLen == 0 {
			return 0, false
		}
		next++
		return next - 1, true
	}
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				t0 := time.Now()
				ok = do(i)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				mu.Lock()
				res.latMS = append(res.latMS, ms)
				if !ok {
					res.failed++
				}
				if len(res.latMS)%passLen == 0 {
					addMark()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// passRates returns, per pass of completions between two marks, the
// loads per second and the process CPU milliseconds per load.
func (lr *loopResult) passRates(passLen int) (perS, cpuMS []float64) {
	for k := 1; k < len(lr.marks); k++ {
		a, b := lr.marks[k-1], lr.marks[k]
		perS = append(perS, float64(passLen)/(b.at-a.at).Seconds())
		cpuMS = append(cpuMS, float64((b.cpu-a.cpu).Nanoseconds())/1e6/float64(passLen))
	}
	return perS, cpuMS
}

// windowedP99 is the median, over consecutive windows of p99Samples
// loads, of each window's p99: a tail that a burst of host noise in a
// few windows does not move.
func windowedP99(lat []float64) (float64, error) {
	var ws []float64
	for i := 0; i+p99Samples <= len(lat); i += p99Samples {
		v, err := percentile(lat[i:i+p99Samples], 0.99)
		if err != nil {
			return 0, err
		}
		ws = append(ws, v)
	}
	if len(ws) == 0 {
		return 0, fmt.Errorf("%d loads, need %d for a p99", len(lat), p99Samples)
	}
	return median(ws), nil
}

// allocSamples are the runtime/metrics counters behind allocation
// deltas. The runtime folds small allocations into these counters when
// a span is refilled, so a delta around one short call is coarse; sums
// over many calls are exact up to one span per size class.
var allocSampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func newAllocSamples() []metrics.Sample {
	s := make([]metrics.Sample, len(allocSampleNames))
	for i, n := range allocSampleNames {
		s[i].Name = n
	}
	return s
}

func readAllocs(s []metrics.Sample) (allocs, bytes uint64) {
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()
}

// processCPU is the process's user plus system CPU time.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

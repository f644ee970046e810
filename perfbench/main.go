// Command perfbench is the repository's benchmark: closed-loop BCF loads
// on four seeded workloads, every verdict checked against the label its
// input generator assigns. An untraced run (-trace 0) reports the
// end-to-end metrics; a traced run (-trace 1) drives the same inputs
// through a benchmark-side protocol driver and reports per-layer time and
// allocations. See README.md for the workloads and the metric map.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload corpus-warm --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bcf/internal/corpus"
)

// childSetups is how many extra set-ups each run times in child
// processes; setup_s is the median over them and the run's own set-up.
// A child starts from a fresh process, so corpus generation (memoized
// per process) is timed every time.
const childSetups = 10

// maxReports bounds the failed loads a run describes on standard error.
const maxReports = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: corpus-warm, corpus-cold, paths or remote")
	seed := flag.Uint64("seed", 1, "seed of the generated request sequence")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced driver")
	setupOnly := flag.Bool("setup-only", false, "set up, print the set-up time and exit (used for repeated set-ups)")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *setupOnly); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace int, setupOnly bool) error {
	s, err := specByName(workload)
	if err != nil {
		return err
	}
	if seconds <= 0 || trace < 0 || trace > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	var setups []float64
	if !setupOnly && trace == 0 {
		for i := 0; i < childSetups; i++ {
			d, err := childSetup(workload, seed)
			if err != nil {
				return err
			}
			setups = append(setups, d)
		}
	}
	t0 := time.Now()
	e, err := setUp(s, seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	setups = append(setups, time.Since(t0).Seconds())
	if setupOnly {
		fmt.Println(setups[0])
		return nil
	}
	var res result
	if trace == 1 {
		res, err = tracedRun(e, seed, seconds)
	} else {
		res, err = untracedRun(e, seconds, median(setups))
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// childSetup times one set-up in a fresh process.
func childSetup(workload string, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "--setup-only", "--workload", workload, "--seed", strconv.FormatUint(seed, 10))
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	d, err := strconv.ParseFloat(strings.TrimSpace(out.String()), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up child output %q: %w", out.String(), err)
	}
	return d, nil
}

// untracedRun measures the end-to-end metrics over one closed-loop
// window.
func untracedRun(e *env, seconds, setupS float64) (result, error) {
	runtime.GC()
	samples := newAllocSamples()
	allocs0, bytes0 := readAllocs(samples)
	var reported atomic.Int32
	lr := closedLoop(e.s.clients, e.in.passLen, seconds, func(i int) bool {
		r := e.in.at(i)
		v, err := e.load(r)
		if err == nil {
			err = check(e.s, r.lab, v)
		}
		if err != nil && reported.Add(1) <= maxReports {
			fmt.Fprintf(os.Stderr, "perfbench: load %d (%s): %v\n", i, r.name, err)
		}
		return err == nil
	})
	allocs1, bytes1 := readAllocs(samples)
	if lr.err != nil {
		return result{}, lr.err
	}
	n := len(lr.latMS)
	perS, cpuMS := lr.passRates(e.in.passLen)
	p50, err := percentile(lr.latMS, 0.5)
	if err != nil {
		return result{}, fmt.Errorf("load_p50_ms: %w", err)
	}
	p99, err := windowedP99(lr.latMS)
	if err != nil {
		return result{}, fmt.Errorf("load_p99_ms: %w (run longer)", err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	fn := float64(n)
	m := map[string]metric{
		"loads_per_s":       {median(perS), "1/s"},
		"load_p50_ms":       {p50, "ms"},
		"cpu_ms_per_load":   {median(cpuMS), "ms"},
		"alloc_kb_per_load": {float64(bytes1-bytes0) / 1024 / fn, "KiB"},
		"allocs_per_load":   {float64(allocs1-allocs0) / fn, "count"},
		"peak_rss_mb":       {rss, "MiB"},
		"setup_s":           {setupS, "s"},
	}
	fmt.Printf("workload %s: %d clients, %d loads (%d passes of %d) in %.3f s\n",
		e.s.name, e.s.clients, n, len(perS), e.in.passLen, lr.elapsed.Seconds())
	for _, k := range []string{"loads_per_s", "load_p50_ms", "cpu_ms_per_load",
		"alloc_kb_per_load", "allocs_per_load", "peak_rss_mb", "setup_s"} {
		note := ""
		switch k {
		case "load_p50_ms":
			note = fmt.Sprintf("  (n=%d)", n)
		case "loads_per_s", "cpu_ms_per_load":
			note = fmt.Sprintf("  (median of %d passes)", len(perS))
		}
		fmt.Printf("  %-18s %14.4f %s%s\n", k, m[k].Value, m[k].Unit, note)
	}
	// Printed but not gated: see README.md.
	fmt.Printf("  %-18s %14.4f ms  (median of %d windows of %d)\n", "load_p99_ms", p99, n/p99Samples, p99Samples)
	fmt.Printf("  %-18s %14.4f (%d/%d)\n", "failed_ratio", float64(lr.failed)/fn, lr.failed, n)
	if lr.failed == 0 && e.s.name != "paths" {
		fmt.Printf("  every verdict matched its label; per pass: %s\n", buckets(e.in))
	}
	return result{Correct: lr.failed == 0, Attempted: n, Failed: lr.failed, Metrics: m}, nil
}

// buckets counts a corpus pool's labels by expected verdict.
func buckets(in *inputs) string {
	count := map[corpus.Outcome]int{}
	for _, r := range in.pool {
		count[r.lab.expect]++
	}
	var parts []string
	for _, o := range []corpus.Outcome{corpus.ExpectAccept, corpus.ExpectRejectWeakCond,
		corpus.ExpectRejectInsnLimit, corpus.ExpectRejectUntriggered} {
		parts = append(parts, fmt.Sprintf("%d %s", count[o], o))
	}
	return strings.Join(parts, ", ")
}

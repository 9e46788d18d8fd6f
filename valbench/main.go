// Command valbench is fedshap's end-to-end and per-layer valuation
// benchmark. One invocation runs one workload as a closed loop inside this
// single process and prints one JSON result line:
//
//	valbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics a user of the library
// or the service sees; with --trace 1 it times the calls into each layer's
// public functions from outside the program and reports the per-layer
// ladder, its residuals and the tracing overhead. Correctness checks run
// outside the timed window; any failure prints "correct": false and exits
// with status 1. See README.md for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds the daemons' stores and journals; it is created if
	// missing and each run removes what it wrote.
	workDir string
	// setups is how many times set-up is repeated for the setup_s median:
	// setupReps for a timed run.
	setups int
	// log receives progress lines; the result goes to stdout alone.
	log io.Writer
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many set-ups a timed run takes the setup_s median of.
const setupReps = 3

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("valbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := options{workDir: filepath.Join(".bench_build", "tmp"), setups: setupReps, log: stderr}
	fs.StringVar(&opts.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
	fs.Int64Var(&opts.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&opts.seconds, "seconds", 20, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports the per-layer ladder instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "valbench: --trace must be 0 or 1")
		return 2
	}
	opts.trace = *traceFlag == 1
	if opts.seconds <= 0 {
		fmt.Fprintln(stderr, "valbench: --seconds must be positive")
		return 2
	}
	res, err := runWorkload(ctx, opts)
	if err != nil {
		fmt.Fprintln(stderr, "valbench:", err)
		if res == nil {
			return 2
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "valbench:", jerr)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// workloadNames lists the registered workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runWorkload sets the workload up, verifies it and measures it. A
// correctness failure returns a result with Correct false together with
// the error describing it; an error with a nil result means the run could
// not be measured at all.
func runWorkload(ctx context.Context, opts options) (*result, error) {
	setup, ok := workloads[opts.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", opts.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return nil, err
	}
	env := &env{seed: opts.seed, workDir: opts.workDir, trace: opts.trace, log: opts.log}

	// Set-up is repeated and the median reported, so set-up work a change
	// adds shows against a steady figure; the last instance is measured.
	reps := opts.setups
	if opts.trace {
		reps = 1 // a traced run reports no setup_s
	}
	var setupTimes []float64
	var w workload
	for i := 0; i < reps; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if w, err = setup(ctx, env); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", opts.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer func() {
		if err := w.close(); err != nil {
			fmt.Fprintln(opts.log, "valbench: close:", err)
		}
	}()
	env.logf("%s: set-up %.3fs (median of %d)", opts.workload, median(setupTimes), len(setupTimes))
	// Set-up's garbage (exact references, discarded set-ups) would
	// otherwise leave the heap in a state no user's process starts the
	// measured work from: return it before anything is timed.
	debug.FreeOSMemory()

	if opts.trace {
		return traceRun(ctx, env, w, opts.seconds)
	}
	return timedRun(ctx, env, w, opts.seconds, median(setupTimes))
}

// timedRun measures the end-to-end metrics of one set-up workload.
func timedRun(ctx context.Context, env *env, w workload, seconds, setupS float64) (*result, error) {
	if err := w.precheck(ctx); err != nil {
		return &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, err
	}
	if err := warmUp(ctx, w); err != nil {
		return nil, err
	}
	before := w.counters()
	loop := closedLoop(ctx, w, time.Duration(seconds*float64(time.Second)), false)
	delta := diff(w.counters(), before)
	res := &result{Correct: true, Attempted: loop.attempted, Failed: loop.failed}
	if loop.completed() < 1 {
		res.Correct, res.Metrics = false, map[string]metric{}
		return res, fmt.Errorf("no valuation completed in the timed window: %w", loop.outcomes[0].err)
	}
	err := w.postcheck(ctx, loop.outcomes)
	if err == nil {
		err = checkOutcomes(w, loop.outcomes)
	}
	if err != nil {
		res.Correct = false
	}
	res.Metrics = endToEnd(loop, w.evalsPerValuation(loop.outcomes, delta), setupS)
	env.logf("%s: %d valuations, %.2f/s, p50 %.4fs, p90 %.4fs, err %.4g", w.name(), loop.completed(),
		res.Metrics["valuations_per_s"].Value, res.Metrics["valuation_p50_s"].Value,
		res.Metrics["valuation_p90_s"].Value, res.Metrics["value_rel_error"].Value)
	env.logf("%s: completion rate per slice %.4g", w.name(), loop.sliceRates())
	return res, err
}

// checkOutcomes applies the checks every workload shares: finite errors
// and a mean relative error under the workload's tolerance.
func checkOutcomes(w workload, outs []outcome) error {
	var sum float64
	n := 0
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if !finite(o.relErr) {
			return fmt.Errorf("%s: valuation produced a non-finite error", w.name())
		}
		sum += o.relErr
		n++
	}
	if n == 0 {
		return fmt.Errorf("%s: no successful valuation to check", w.name())
	}
	if mean := sum / float64(n); mean > w.tolerance() {
		return fmt.Errorf("%s: mean value_rel_error %.4g exceeds the tolerance %.4g", w.name(), mean, w.tolerance())
	}
	return nil
}

// endToEnd derives the end-to-end metrics from a measured loop.
func endToEnd(loop *loopResult, evalsPer, setupS float64) map[string]metric {
	var lat, errs []float64
	for _, o := range loop.outcomes {
		if o.err != nil {
			continue
		}
		lat = append(lat, o.seconds)
		errs = append(errs, o.relErr)
	}
	return map[string]metric{
		"valuations_per_s":    {loop.throughput(), "1/s"},
		"valuation_p50_s":     {quantile(lat, 0.5), "s"},
		"valuation_p90_s":     {quantile(lat, 0.9), "s"},
		"evals_per_valuation": {evalsPer, "count"},
		"value_rel_error":     {mean(errs), "ratio"},
		"completed_share":     {float64(loop.completed()) / float64(loop.attempted), "ratio"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
		"setup_s":             {setupS, "s"},
	}
}

// env is what a workload's set-up needs from the invocation.
type env struct {
	seed    int64
	workDir string
	// trace installs the hooks only the traced run reads.
	trace bool
	log   io.Writer
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"syscall"
	"time"
)

// workload is one set-up benchmark workload.
type workload interface {
	name() string
	// valuate runs one valuation. traced selects the instrumented path
	// the per-layer ladder reads; the untraced path is what users call.
	valuate(ctx context.Context, traced bool) outcome
	// precheck runs the correctness checks that need no timed outcomes.
	precheck(ctx context.Context) error
	// postcheck verifies the timed window's outcomes.
	postcheck(ctx context.Context, outs []outcome) error
	// tolerance bounds the mean value_rel_error of a correct run.
	tolerance() float64
	// evalsPerValuation is a window's evals_per_valuation, from its
	// outcomes and the counter deltas it caused.
	evalsPerValuation(outs []outcome, delta counterSet) float64
	// shape is the problem the traced run measures the library rungs on.
	shape() (ladderShape, error)
	// counters samples the workload's cumulative service counters.
	counters() counterSet
	// layers fills the rungs of a traced run that the workload's own
	// traffic passes through from its traced outcomes and counter deltas,
	// and the service and fleet rungs it skips from a probe (fleetProbe).
	layers(ctx context.Context, e *env, traced []outcome, delta counterSet, lm layerMetrics) error
	close() error
}

// outcome is one valuation as the benchmark saw it.
type outcome struct {
	start, end time.Time
	// seconds is the valuation's latency as its caller saw it.
	seconds float64
	// evals is the number of distinct coalitions the valuation trained.
	evals int
	// relErr is the relative L2 error against the workload's reference.
	relErr float64
	values []float64
	err    error
	// job holds the service rungs of a service valuation.
	job *jobRecord
}

// loopResult is one closed-loop measurement window.
type loopResult struct {
	start    time.Time
	window   time.Duration
	outcomes []outcome
	attempted,
	failed int
}

func (l *loopResult) completed() int { return l.attempted - l.failed }

// throughputBuckets is how many equal slices the window is cut into for
// the throughput median; a slice disturbed by a neighbour's burst on a
// shared machine then moves the median little.
const throughputBuckets = 10

// throughput is the median over equal slices of the window of the
// completion rate inside the slice: completions after the slice's first,
// over the time from its first to its last completion. Unlike a count per
// slice it is not quantised to whole valuations.
//
// When valuations are too slow for most slices to see two completions (a
// short window or a slow machine), it falls back to every completed
// valuation over the time from the window's start to the last completion.
func (l *loopResult) throughput() float64 {
	if rates := l.sliceRates(); len(rates) > throughputBuckets/2 {
		return median(rates)
	}
	done, last := 0, l.start
	for _, o := range l.outcomes {
		if o.err == nil {
			done++
			if o.end.After(last) {
				last = o.end
			}
		}
	}
	if done == 0 {
		return 0
	}
	return float64(done) / last.Sub(l.start).Seconds()
}

// sliceRates is the completion rate of each slice of the window that saw
// at least two completions.
func (l *loopResult) sliceRates() []float64 {
	first := make([]time.Time, throughputBuckets)
	last := make([]time.Time, throughputBuckets)
	counts := make([]int, throughputBuckets)
	slice := l.window / throughputBuckets
	for _, o := range l.outcomes {
		if o.err != nil {
			continue
		}
		k := int(o.end.Sub(l.start) / slice)
		if k < 0 || k >= throughputBuckets {
			continue
		}
		if counts[k] == 0 || o.end.Before(first[k]) {
			first[k] = o.end
		}
		if o.end.After(last[k]) {
			last[k] = o.end
		}
		counts[k]++
	}
	var rates []float64
	for k, n := range counts {
		if span := last[k].Sub(first[k]).Seconds(); n > 1 && span > 0 {
			rates = append(rates, float64(n-1)/span)
		}
	}
	return rates
}

// closedLoop runs one closed-loop caller for the window: it issues
// valuations back to back and stops issuing at the deadline; a valuation
// in flight at the deadline still completes and counts.
//
// One caller, not one per CPU: with two, a service job's latency depended
// on whether the other caller's job overlapped it. On service-warm the
// latencies formed a solo and an overlapped cluster with the median
// between them, and on both service workloads the latency followed the
// host's speed about three times as closely as a lone caller's did. The
// coalitions a valuation trains are trainWorkers wide for the same reason.
func closedLoop(ctx context.Context, w workload, window time.Duration, traced bool) *loopResult {
	res := &loopResult{start: time.Now(), window: window}
	deadline := res.start.Add(window)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		o := w.valuate(ctx, traced)
		res.outcomes = append(res.outcomes, o)
		res.attempted++
		if o.err != nil {
			res.failed++
		}
	}
	return res
}

// warmUpWindow lets lazily built state, connection pools and the
// runtime's heap settle before anything is timed.
const warmUpWindow = 1500 * time.Millisecond

// warmUp drives the untraced loop for the warm-up window and reports the
// first failure, so a broken workload fails before it is timed.
func warmUp(ctx context.Context, w workload) error {
	for _, o := range closedLoop(ctx, w, warmUpWindow, false).outcomes {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// trainedPerValuation is the mean number of coalitions the completed
// outcomes trained.
func trainedPerValuation(outs []outcome) float64 {
	var evals []float64
	for _, o := range outs {
		if o.err == nil {
			evals = append(evals, float64(o.evals))
		}
	}
	return mean(evals)
}

// timed runs one valuation and fills the outcome's clock fields and,
// unless the valuation reported its own, its latency.
func timed(fn func() outcome) outcome {
	start := time.Now()
	o := fn()
	o.start, o.end = start, time.Now()
	if o.seconds == 0 {
		o.seconds = o.end.Sub(start).Seconds()
	}
	return o
}

// requestRNG derives the generator behind the i-th request of a run, so
// the same seed draws the same request sequence at any concurrency.
func requestRNG(seed, i int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + i*7919 + 17))
}

// relErr is the relative L2 distance of v from ref.
func relErr(v, ref []float64) float64 {
	var num, den float64
	for i := range ref {
		d := v[i] - ref[i]
		num += d * d
		den += ref[i] * ref[i]
	}
	return math.Sqrt(num / den)
}

// sameBits reports whether two value vectors are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// median is the middle value of xs, averaging the two middle values of an
// even-length slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

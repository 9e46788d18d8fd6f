package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedshap"
	"fedshap/internal/combin"
	"fedshap/internal/dataset"
	"fedshap/internal/fl"
	"fedshap/internal/model"
	"fedshap/internal/shapley"
	"fedshap/internal/tensor"
	"fedshap/internal/utility"
	"fedshap/internal/valserve"
)

// The traced run times the calls into each layer's public functions from
// the benchmark's own code, rung by rung down the ladder tensor → model →
// fl → τ → oracle pool → algorithm → service job → fleet round trip. The
// library rungs are measured at the workload's own problem shape. The
// algorithm, cache, service and fleet rungs come from the workload's own
// traffic where it passes through them. The benchmark's result carries
// every per-layer metric on every workload, so the service and fleet
// rungs a workload's traffic skips come from a short probe of cold jobs
// of its shape through an in-process daemon with a fleet.

// layerMetrics collects the per-layer metrics of a traced run.
type layerMetrics map[string]metric

func (lm layerMetrics) set(name string, value float64, unit string) {
	lm[name] = metric{Value: value, Unit: unit}
}

// numCPU is the width of the set-up pools, of the worker-count check's
// wide pool and of the probe's client set.
func numCPU() int { return runtime.GOMAXPROCS(0) }

// trainWorkers is how many coalitions the timed workloads train at once:
// the library workload's pool width and the fleet worker's capacity. One,
// not one per CPU: on a shared host with few cores a pool of one per core
// waits for whichever core a neighbour slows, and a run's median followed
// the host's load. Over interleaved runs on 2 vCPUs the library p50
// spread 0.12 (interquartile range over median) with two workers and 0.08
// with one; on the fleet 0.09 and 0.08. The worker-count check still
// compares one worker with one per CPU.
const trainWorkers = 1

// ladderShape is the problem a traced run measures the library rungs on:
// the service's problem for a request, and a public-API federation the
// replay must agree with bit for bit.
type ladderShape struct {
	spec utility.FLSpec
	fed  *fedshap.Federation
}

// baseShape is the base problem's ladder shape: the service's problem
// for baseRequest and the public-API federation of baseFederation. Every
// workload's problems have this shape.
func baseShape() (ladderShape, error) {
	p, err := valserve.BuildProblem(baseRequest())
	if err != nil {
		return ladderShape{}, err
	}
	fed, err := baseFederation()
	if err != nil {
		return ladderShape{}, err
	}
	return ladderShape{spec: *p.Spec, fed: fed}, nil
}

// replayStats times one valuation replayed layer by layer.
type replayStats struct {
	planS, prefetchS, reduceS float64
	// tauS sums the training time of every fresh evaluation, measured
	// inside the pool through Oracle.WrapEval.
	tauS float64
	// hits and hitS count the reduce pass's cache reads (Oracle.OnCacheHit).
	hits int64
	hitS float64
	// evals is the number of coalitions the replay trained.
	evals int
}

// replay runs one valuation as fedshap.Federation.ValueParallelCtx does,
// one public call at a time: shapley.PlanFor, utility.NewFLOracle with
// Prefetch on the pool, then utility.NewRunView with shapley.Run.
func replay(ctx context.Context, spec utility.FLSpec, alg shapley.Valuer, seed int64, workers int) ([]float64, replayStats, error) {
	var st replayStats
	start := time.Now()
	plan, ok := shapley.PlanFor(alg, len(spec.Clients), seed)
	st.planS = time.Since(start).Seconds()

	oracle := utility.NewFLOracle(spec)
	var tauNanos, hitNanos, hits atomic.Int64
	oracle.WrapEval(func(inner utility.EvalFunc) utility.EvalFunc {
		return func(s combin.Coalition) float64 {
			t := time.Now()
			u := inner(s)
			tauNanos.Add(int64(time.Since(t)))
			return u
		}
	})
	oracle.OnCacheHit(func(seconds float64) {
		hits.Add(1)
		hitNanos.Add(int64(seconds * 1e9))
	})
	t := time.Now()
	if ok && len(plan) > 0 {
		if err := oracle.Prefetch(ctx, plan, workers); err != nil {
			return nil, st, err
		}
	}
	st.prefetchS = time.Since(t).Seconds()

	t = time.Now()
	view := utility.NewRunView(oracle)
	values, err := shapley.Run(shapley.NewContext(view, seed).WithSpec(&spec).WithContext(ctx), alg)
	st.reduceS = time.Since(t).Seconds()
	if err != nil {
		return nil, st, err
	}
	st.evals = oracle.Evals()
	st.tauS = time.Duration(tauNanos.Load()).Seconds()
	st.hits = hits.Load()
	st.hitS = time.Duration(hitNanos.Load()).Seconds()
	return values, st, nil
}

// replayProbes is how many seeded valuations the library rungs replay.
const replayProbes = 12

// libraryRungs replays IPSS valuations at the shape and fills the oracle
// pool and algorithm rungs. Each replay is checked bit-identical to
// fedshap.Federation.ValueParallelCtx with the same seed, whose latency
// is the valuation the residual is taken from. The pool efficiency and
// the residual are library-path figures on every workload; a service
// workload's layers replace the plan, prefetch, reduce and cache figures
// with its own jobs'.
func libraryRungs(ctx context.Context, shape ladderShape, seed int64, lm layerMetrics) error {
	workers := trainWorkers
	var plan, prefetch, reduce, eff, hits, valuation []float64
	var hitS float64
	var hitN int64
	for i := int64(0); i < replayProbes; i++ {
		s := requestRNG(seed, 1_000+i).Int63n(1 << 40)
		// Alternate which of the pair runs first, so neither side always
		// inherits the other's garbage.
		var vals []float64
		var st replayStats
		var rep *fedshap.Report
		var seconds float64
		var err error
		for _, first := range []bool{i%2 == 0, i%2 != 0} {
			if first {
				vals, st, err = replay(ctx, shape.spec, fedshap.IPSS(ipssGamma), s, workers)
			} else {
				start := time.Now()
				rep, err = shape.fed.ValueParallelCtx(ctx, fedshap.IPSS(ipssGamma), s, workers)
				seconds = time.Since(start).Seconds()
			}
			if err != nil {
				return err
			}
		}
		valuation = append(valuation, seconds)
		if !sameBits(vals, rep.Values) {
			return fmt.Errorf("traced replay of seed %d differs from ValueParallelCtx", s)
		}
		plan = append(plan, st.planS)
		prefetch = append(prefetch, st.prefetchS)
		reduce = append(reduce, st.reduceS)
		eff = append(eff, st.tauS/(float64(workers)*st.prefetchS))
		hits = append(hits, float64(st.hits))
		hitS += st.hitS
		hitN += st.hits
	}
	lm.set("shapley.plan_s", median(plan), "s")
	lm.set("utility.prefetch_s", median(prefetch), "s")
	lm.set("shapley.reduce_s", median(reduce), "s")
	lm.set("utility.pool_efficiency", median(eff), "ratio")
	lm.set("fedshap.residual_s", median(valuation)-(median(plan)+median(prefetch)+median(reduce)), "s")
	lm.set("utility.cache_hits_per_valuation", mean(hits), "count")
	lm.set("utility.cache_hit_s", hitS/float64(max(hitN, 1)), "s")
	return nil
}

// kernelReps is how many repetitions each kernel timing takes the median
// of.
const kernelReps = 9

// computeRungs times the tensor, model, fl and τ rungs at the shape, on
// the coalitions of one seeded IPSS plan.
func computeRungs(shape ladderShape, seed int64, lm layerMetrics) error {
	spec := shape.spec
	mlp, ok := spec.Factory(spec.Config.Seed).(*model.MLP)
	if !ok {
		return fmt.Errorf("ladder: the workload's model is not an MLP")
	}

	// tensor: the input-layer product W1·x every forward pass makes.
	x := spec.Test.X.Row(0)
	h := tensor.NewVector(mlp.Hidden)
	const products = 20_000
	lm.set("tensor.matmul_s", medianOf(kernelReps, func() float64 {
		start := time.Now()
		for i := 0; i < products; i++ {
			mlp.W1.MulVec(x, h)
		}
		return time.Since(start).Seconds() / products
	}), "s")
	lm.set("tensor.matmul_flops", float64(2*mlp.Hidden*mlp.In), "count")

	// model: one local SGD epoch on one client's data, and its allocations.
	local := mlp.Clone().(model.Parametric)
	client := spec.Clients[0]
	rng := rand.New(rand.NewSource(seed))
	lm.set("model.train_epoch_s", medianOf(kernelReps, func() float64 {
		start := time.Now()
		local.TrainEpoch(client, spec.Config.LR, rng)
		return time.Since(start).Seconds()
	}), "s")
	lm.set("model.allocs_per_epoch", allocsPer(kernelReps, func() {
		local.TrainEpoch(client, spec.Config.LR, rng)
	}), "count")

	// fl and τ over one plan's coalitions: fl.Train, the metric, and the
	// oracle evaluation (train + score) that τ is.
	plan, _ := shapley.PlanFor(shapley.NewIPSS(ipssGamma), len(spec.Clients), seed)
	var trainS, accS, tauS, members float64
	for _, s := range plan {
		subset := make([]*dataset.Dataset, 0, s.Size())
		for _, i := range s.Members() {
			subset = append(subset, spec.Clients[i])
			if spec.Clients[i].Len() > 0 {
				members++
			}
		}
		start := time.Now()
		m := fl.Train(spec.Factory, subset, spec.Config)
		trained := time.Now()
		spec.Metric(m, spec.Test)
		trainS += trained.Sub(start).Seconds()
		accS += time.Since(trained).Seconds()

		oracle := utility.NewFLOracle(spec)
		start = time.Now()
		oracle.U(s)
		tauS += time.Since(start).Seconds()
	}
	k := float64(len(plan))
	trainS, accS, tauS, members = trainS/k, accS/k, tauS/k, members/k
	cfg := spec.Config
	lm.set("fl.train_s", trainS, "s")
	lm.set("model.accuracy_s", accS, "s")
	lm.set("utility.tau_s", tauS, "s")
	lm.set("utility.tau_residual_s", tauS-(trainS+accS), "s")
	lm.set("fl.residual_s", trainS-float64(cfg.Rounds*cfg.LocalEpochs)*members*lm["model.train_epoch_s"].Value, "s")
	return nil
}

// medianOf is the median of reps calls of fn.
func medianOf(reps int, fn func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// allocsPer is the mean number of heap allocations one call of fn makes.
func allocsPer(reps int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// counterSet is a workload's cumulative service counters; a traced run
// sums their deltas over its traced segments.
type counterSet map[string]float64

// daemonCounters samples a daemon's cumulative counters.
func daemonCounters(d *daemon) counterSet {
	c := counterSet{}
	if jl := d.mgr.Journal(); jl != nil {
		c["journal_bytes"] = float64(jl.Size())
	}
	if st := d.mgr.Store(); st != nil {
		if s, err := st.Stats(); err == nil {
			c["store_bytes"] = float64(s.Bytes)
		}
	}
	const cache = `fedvald_eval_latency_seconds_%s{source="cache"}`
	c["cache_hits"] = registrySample(d.mgr, fmt.Sprintf(cache, "count"))
	c["cache_hit_s"] = registrySample(d.mgr, fmt.Sprintf(cache, "sum"))
	c["busy_s"] = time.Duration(d.busyNanos.Load()).Seconds()
	if d.coord != nil {
		stats := d.coord.Stats()
		c["redispatches"] = float64(stats.Redispatches)
		c["requeues"] = float64(stats.Requeues)
	}
	return c
}

// registrySample reads one sample, named with its labels as the text
// exposition writes it, from the daemon's metrics registry (0 if absent).
func registrySample(m *valserve.Manager, series string) float64 {
	var buf bytes.Buffer
	if err := m.Registry().WriteText(&buf); err != nil {
		return 0
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

// serviceRungs fills the valserve rungs from traced jobs and the journal
// growth they caused.
func serviceRungs(recs []*jobRecord, delta counterSet, lm layerMetrics) {
	var submit, notify float64
	spans := map[string]float64{}
	for _, r := range recs {
		submit += r.submitS
		notify += r.notifyS
		for _, sp := range r.trace.Spans {
			spans[sp.Name] += sp.DurationSeconds
		}
	}
	k := float64(len(recs))
	lm.set("valserve.submit_s", submit/k, "s")
	lm.set("valserve.queue_s", spans["queue"]/k, "s")
	lm.set("valserve.build_problem_s", spans["build_problem"]/k, "s")
	lm.set("valserve.warm_start_s", spans["warm_start"]/k, "s")
	lm.set("valserve.aggregate_s", spans["aggregate"]/k, "s")
	lm.set("valserve.notify_s", notify/k, "s")
	lm.set("valserve.journal_bytes_per_job", delta["journal_bytes"]/k, "bytes")
}

// cacheRungs fills the cache rungs from a daemon's own reduce passes.
func cacheRungs(jobs int, delta counterSet, lm layerMetrics) {
	lm.set("utility.cache_hits_per_valuation", delta["cache_hits"]/float64(jobs), "count")
	lm.set("utility.cache_hit_s", delta["cache_hit_s"]/max(delta["cache_hits"], 1), "s")
}

// jobAlgorithmRungs fills the algorithm rungs from traced service jobs:
// prefetch and reduce are the daemon's prefetch and aggregate spans, and
// plan is shapley.PlanFor timed on each job's algorithm and budget (the
// daemon records no plan span).
func jobAlgorithmRungs(recs []*jobRecord, lm layerMetrics) error {
	var plan float64
	spans := map[string]float64{}
	for _, r := range recs {
		alg, err := valserve.NewValuer(r.req.Algorithm, r.req.Gamma, r.req.K)
		if err != nil {
			return err
		}
		start := time.Now()
		shapley.PlanFor(alg, r.req.N, r.req.Seed)
		plan += time.Since(start).Seconds()
		for _, sp := range r.trace.Spans {
			spans[sp.Name] += sp.DurationSeconds
		}
	}
	k := float64(len(recs))
	lm.set("shapley.plan_s", plan/k, "s")
	lm.set("utility.prefetch_s", spans["prefetch"]/k, "s")
	lm.set("shapley.reduce_s", spans["aggregate"]/k, "s")
	return nil
}

// fleetRungs fills the evalnet rungs and the store's write cost from
// traced fleet jobs. The overhead share sets the worker's reported busy
// time against its capacity over the union of the jobs' dispatch spans —
// the time the fleet had work — so concurrent jobs are not counted twice.
// The dispatch mean is over the jobs whose trace holds a closed dispatch
// span (see daemon.value); jobs without one are logged.
func fleetRungs(e *env, recs []*jobRecord, delta counterSet, capacity int, lm layerMetrics) {
	var dispatch, fresh float64
	var spans []fedshap.TraceSpan
	dispatched := 0
	for _, r := range recs {
		fresh += float64(r.status.FreshEvals)
		if hasDispatch(r.trace) {
			dispatched++
		}
		for _, sp := range r.trace.Spans {
			if sp.Name == "dispatch" && sp.End != nil {
				dispatch += sp.DurationSeconds
				spans = append(spans, sp)
			}
		}
	}
	if missing := len(recs) - dispatched; missing > 0 {
		e.logf("fleet rungs: %d of %d traced jobs have no closed dispatch span", missing, len(recs))
	}
	k := float64(len(recs))
	lm.set("evalnet.dispatch_s", dispatch/float64(max(dispatched, 1)), "s")
	lm.set("evalnet.worker_busy_s", delta["busy_s"]/k, "s")
	lm.set("evalnet.overhead_share", 1-delta["busy_s"]/(unionSeconds(spans)*float64(capacity)), "ratio")
	lm.set("evalnet.redispatches", delta["redispatches"], "count")
	lm.set("evalnet.requeues", delta["requeues"], "count")
	lm.set("utility.store_bytes_per_eval", delta["store_bytes"]/max(fresh, 1), "bytes")
}

// unionSeconds is the length of the union of closed spans.
func unionSeconds(spans []fedshap.TraceSpan) float64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start.Before(spans[b].Start) })
	var total time.Duration
	var start, end time.Time
	for i, sp := range spans {
		if i == 0 || sp.Start.After(end) {
			total += end.Sub(start)
			start, end = sp.Start, *sp.End
		} else if sp.End.After(end) {
			end = *sp.End
		}
	}
	total += end.Sub(start)
	return total.Seconds()
}

// fleetProbeJobs is how many cold jobs a fleet probe runs.
const fleetProbeJobs = 16

// fleetProbe runs fleetProbeJobs fresh-fingerprint jobs of the base
// problem's shape through a new daemon with a fleet and fills the rungs
// named by fill.
func fleetProbe(ctx context.Context, e *env, fill func(recs []*jobRecord, delta counterSet, capacity int)) error {
	d, err := startDaemon(e.workDir, true, e.trace)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := d.close(); cerr != nil {
			e.logf("fleet probe: close: %v", cerr)
		}
	}()
	reqs := make([]fedshap.JobRequest, fleetProbeJobs)
	for i := range reqs {
		reqs[i] = revisedRequest(baseRequest(), e.seed, int64(i))
	}
	// One untraced job first, so the fleet connection and the worker's
	// problem builder are warm before anything is counted.
	if _, err := d.value(ctx, revisedRequest(baseRequest(), e.seed, -1), false); err != nil {
		return err
	}
	before := daemonCounters(d)
	recs, err := runJobs(ctx, d, reqs)
	if err != nil {
		return err
	}
	fill(recs, diff(daemonCounters(d), before), d.capacity)
	return nil
}

// runJobs runs reqs traced on one closed-loop client per CPU.
func runJobs(ctx context.Context, d *daemon, reqs []fedshap.JobRequest) ([]*jobRecord, error) {
	recs := make([]*jobRecord, len(reqs))
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < numCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				recs[i], errs[i] = d.value(ctx, reqs[i], true)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// diff is after − before, key by key.
func diff(after, before counterSet) counterSet {
	out := counterSet{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// overheadOrder is the sequence of traced (true) and untraced segments
// the overhead comparison cuts the window into; the ABBA order cancels a
// linear drift across the window.
var overheadOrder = []bool{true, false, false, true}

// traceRun measures the per-layer ladder of one set-up workload. It runs
// the same correctness checks as a timed run.
func traceRun(ctx context.Context, e *env, w workload, seconds float64) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(err error) (*result, error) {
		res.Correct = false
		return res, err
	}
	if err := w.precheck(ctx); err != nil {
		return fail(err)
	}
	if err := warmUp(ctx, w); err != nil {
		return nil, err
	}
	seg := time.Duration(seconds * float64(time.Second) / float64(len(overheadOrder)))
	var all, traced []outcome
	var tracedDone, untracedDone int
	var tracedS, untracedS float64
	delta := counterSet{}
	for _, on := range overheadOrder {
		before := w.counters()
		loop := closedLoop(ctx, w, seg, on)
		res.Attempted += loop.attempted
		res.Failed += loop.failed
		all = append(all, loop.outcomes...)
		if on {
			for key, v := range diff(w.counters(), before) {
				delta[key] += v
			}
			traced = append(traced, loop.outcomes...)
			tracedDone += loop.completed()
			tracedS += seg.Seconds()
		} else {
			untracedDone += loop.completed()
			untracedS += seg.Seconds()
		}
	}
	for _, o := range traced {
		if o.err != nil {
			return fail(o.err)
		}
	}
	if err := w.postcheck(ctx, all); err != nil {
		return fail(err)
	}
	if err := checkOutcomes(w, all); err != nil {
		return fail(err)
	}
	lm := layerMetrics{}
	tracedRate, untracedRate := float64(tracedDone)/tracedS, float64(untracedDone)/untracedS
	lm.set("trace.valuations_per_s_traced", tracedRate, "1/s")
	lm.set("trace.valuations_per_s_untraced", untracedRate, "1/s")
	lm.set("trace.overhead_share", 1-tracedRate/untracedRate, "ratio")

	shape, err := w.shape()
	if err != nil {
		return nil, err
	}
	// The rungs below are timed one call at a time; start them from a
	// collected heap so the traffic above does not tax them with GC work.
	runtime.GC()
	if err := computeRungs(shape, e.seed, lm); err != nil {
		return nil, err
	}
	if err := libraryRungs(ctx, shape, e.seed, lm); err != nil {
		return fail(err)
	}
	if err := w.layers(ctx, e, traced, delta, lm); err != nil {
		return nil, err
	}
	res.Metrics = map[string]metric(lm)
	e.logf("%s: traced %.2f/s, untraced %.2f/s", w.name(), tracedRate, untracedRate)
	return res, nil
}

// jobsOf extracts the service records of traced outcomes.
func jobsOf(outs []outcome) []*jobRecord {
	recs := make([]*jobRecord, 0, len(outs))
	for _, o := range outs {
		if o.job != nil {
			recs = append(recs, o.job)
		}
	}
	return recs
}

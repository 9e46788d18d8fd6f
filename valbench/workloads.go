package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"fedshap"
	"fedshap/internal/valserve"
)

// workloads maps each BENCHMARK.json workload name to its set-up.
var workloads = map[string]func(ctx context.Context, e *env) (workload, error){
	"ipss-mlp-cold": setupLibrary,
	"service-warm":  setupServiceWarm,
	"fleet-cold":    setupFleetCold,
}

// Service-warm draws its requests from warmFingerprints problems of the
// base problem's shape (n=10 FEMNIST-like MLP, "small" scale) with their
// own fixed data seeds, each warmed by one exact job in set-up, crossed
// with these algorithms and budgets: the paper's IPSS and two of the
// sampling baselines it is compared against, at half, once and twice its
// γ=32. Exact Shapley is the warm-up and the reference, not a drawn job.
// The warm-up stores every coalition, so every drawn job is answered from
// the store: 0 fresh evals.
const (
	warmFingerprints = 2
	warmFirstSeed    = 101
	// warmTolerance bounds the mean relative error of the drawn mix
	// against each fingerprint's exact values (measured: 0.03).
	warmTolerance = 0.10
)

var (
	warmAlgorithms = []string{"ipss", "stratified-cc", "ccshapley"}
	warmGammas     = []int{16, 32, 64}
)

// warmRequest is fingerprint fp's request for alg at budget gamma.
func warmRequest(fp int, alg string, gamma int) fedshap.JobRequest {
	req := fedshap.JobRequest{
		Data: "femnist", Model: "mlp", N: baseClients, Scale: "small",
		Algorithm: alg, Gamma: gamma, Seed: int64(warmFirstSeed + fp),
	}
	valserve.Normalize(&req)
	return req
}

// serviceWarmWorkload is service-warm: one closed-loop client submits
// seeded (fingerprint, algorithm, γ) draws over a warm store.
type serviceWarmWorkload struct {
	seed  int64
	d     *daemon
	exact [][]float64
	next  atomic.Int64
}

func setupServiceWarm(ctx context.Context, e *env) (workload, error) {
	d, err := startDaemon(e.workDir, false, e.trace)
	if err != nil {
		return nil, err
	}
	w := &serviceWarmWorkload{seed: e.seed, d: d}
	for fp := 0; fp < warmFingerprints; fp++ {
		rec, err := d.value(ctx, warmRequest(fp, "exact", 0), false)
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		w.exact = append(w.exact, rec.status.Report.Values)
	}
	return w, nil
}

func (w *serviceWarmWorkload) name() string { return "service-warm" }

func (w *serviceWarmWorkload) tolerance() float64 { return warmTolerance }
func (w *serviceWarmWorkload) close() error       { return w.d.close() }

// evalsPerValuation: a warm job trains nothing, so its evaluations are
// the utilities its reduce pass read from the daemon's cache, as the
// daemon counts them.
func (w *serviceWarmWorkload) evalsPerValuation(outs []outcome, delta counterSet) float64 {
	done := 0
	for _, o := range outs {
		if o.err == nil {
			done++
		}
	}
	return delta["cache_hits"] / float64(max(done, 1))
}

// draw is the i-th request of the run. The requests run in rounds that
// each draw every (fingerprint, algorithm, γ) once, in an order shuffled
// by the seed, so every window holds the mix in the same proportions.
func (w *serviceWarmWorkload) draw(i int64) (int, fedshap.JobRequest) {
	round := int64(warmFingerprints * len(warmAlgorithms) * len(warmGammas))
	c := requestRNG(w.seed, i/round).Perm(int(round))[i%round]
	fp, c := c%warmFingerprints, c/warmFingerprints
	return fp, warmRequest(fp, warmAlgorithms[c%len(warmAlgorithms)], warmGammas[c/len(warmAlgorithms)])
}

func (w *serviceWarmWorkload) valuate(ctx context.Context, traced bool) outcome {
	fp, req := w.draw(w.next.Add(1))
	return timed(func() outcome {
		rec, err := w.d.value(ctx, req, traced)
		return serviceOutcome(rec, err, 0, w.exact[fp])
	})
}

func (w *serviceWarmWorkload) precheck(context.Context) error { return nil }

func (w *serviceWarmWorkload) shape() (ladderShape, error) { return baseShape() }

func (w *serviceWarmWorkload) counters() counterSet { return daemonCounters(w.d) }

// layers: the service, algorithm and cache rungs come from the
// workload's own warm jobs; its jobs never train, so the fleet rungs come
// from the probe.
func (w *serviceWarmWorkload) layers(ctx context.Context, e *env, traced []outcome, delta counterSet, lm layerMetrics) error {
	recs := jobsOf(traced)
	serviceRungs(recs, delta, lm)
	cacheRungs(len(recs), delta, lm)
	if err := jobAlgorithmRungs(recs, lm); err != nil {
		return err
	}
	return fleetProbe(ctx, e, func(recs []*jobRecord, delta counterSet, capacity int) {
		fleetRungs(e, recs, delta, capacity, lm)
	})
}

// postcheck: every timed job was answered entirely from the store.
func (w *serviceWarmWorkload) postcheck(_ context.Context, outs []outcome) error {
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if st := o.job.status; st.FreshEvals != 0 || st.Report.Evaluations != 0 {
			return fmt.Errorf("service-warm: job %s (%s) reported %d fresh evals on a warm store",
				st.ID, st.Request.Algorithm, st.FreshEvals)
		}
	}
	return nil
}

// Fleet-cold values the base problem with one client's data revised per
// request: the per-client version vector is part of the fingerprint, so
// every request is a fresh fingerprint and all of its coalitions train
// on the fleet.
const (
	// fleetTolerance bounds the mean relative error against the base
	// problem's exact values; a revised client moves the exact values a
	// little, so it sits above the library's (measured: 0.05).
	fleetTolerance = 0.15
	// fleetChecks is how many seeded timed jobs are re-run without the
	// fleet for the bit-identity check.
	fleetChecks = 6
)

// revisedRequest is the i-th fresh-fingerprint request of a run over
// base (i ≥ -1): one seeded client's data is at version i+2, a version no
// other request of the run uses.
func revisedRequest(base fedshap.JobRequest, seed, i int64) fedshap.JobRequest {
	req := base
	req.Versions = make([]int, base.N)
	req.Versions[requestRNG(seed, i).Intn(base.N)] = int(i) + 2
	valserve.Normalize(&req)
	return req
}

// fleetColdWorkload is fleet-cold: one closed-loop client submits
// fresh-fingerprint IPSS jobs to a daemon whose evaluations all
// run on its one-worker fleet.
type fleetColdWorkload struct {
	seed  int64
	d     *daemon
	exact []float64
	next  atomic.Int64
}

func setupFleetCold(ctx context.Context, e *env) (workload, error) {
	fed, err := baseFederation()
	if err != nil {
		return nil, err
	}
	exact, err := exactValues(ctx, fed)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(e.workDir, true, e.trace)
	if err != nil {
		return nil, err
	}
	return &fleetColdWorkload{seed: e.seed, d: d, exact: exact}, nil
}

func (w *fleetColdWorkload) name() string       { return "fleet-cold" }
func (w *fleetColdWorkload) tolerance() float64 { return fleetTolerance }
func (w *fleetColdWorkload) close() error       { return w.d.close() }

func (w *fleetColdWorkload) evalsPerValuation(outs []outcome, _ counterSet) float64 {
	return trainedPerValuation(outs)
}

func (w *fleetColdWorkload) valuate(ctx context.Context, traced bool) outcome {
	req := revisedRequest(baseRequest(), w.seed, w.next.Add(1))
	return timed(func() outcome {
		rec, err := w.d.value(ctx, req, traced)
		if err != nil {
			return outcome{err: err}
		}
		return serviceOutcome(rec, nil, rec.status.Report.Evaluations, w.exact)
	})
}

func (w *fleetColdWorkload) precheck(context.Context) error { return nil }

func (w *fleetColdWorkload) shape() (ladderShape, error) { return baseShape() }

func (w *fleetColdWorkload) counters() counterSet { return daemonCounters(w.d) }

// layers: every rung the daemon records comes from the workload's own
// jobs.
func (w *fleetColdWorkload) layers(_ context.Context, e *env, traced []outcome, delta counterSet, lm layerMetrics) error {
	recs := jobsOf(traced)
	serviceRungs(recs, delta, lm)
	cacheRungs(len(recs), delta, lm)
	fleetRungs(e, recs, delta, w.d.capacity, lm)
	return jobAlgorithmRungs(recs, lm)
}

// postcheck: every job trained all its coalitions, the fleet answered
// every fresh evaluation the daemon made (none fell back to in-process
// training), and a seeded sample of jobs gives bit-identical values when
// the same request runs in-process on a daemon without a fleet or store.
func (w *fleetColdWorkload) postcheck(ctx context.Context, outs []outcome) error {
	var ok []outcome
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		st := o.job.status
		if st.FreshEvals == 0 || st.FreshEvals != st.Report.Evaluations || st.RemoteWorkers != 1 {
			return fmt.Errorf("fleet-cold: job %s: %d fresh of %d evaluations on %d remote workers",
				st.ID, st.FreshEvals, st.Report.Evaluations, st.RemoteWorkers)
		}
		ok = append(ok, o)
	}
	if len(ok) == 0 {
		return errors.New("fleet-cold: no completed job to check")
	}
	var answered int64
	for _, wi := range w.d.coord.Workers() {
		answered += wi.Completed
	}
	if fresh := registrySample(w.d.mgr, `fedvald_evaluations_total{kind="fresh"}`); float64(answered) != fresh {
		return fmt.Errorf("fleet-cold: the fleet answered %d evaluations of the daemon's %g fresh ones", answered, fresh)
	}
	ref, err := valserve.NewManager(valserve.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer ref.Close()
	r := requestRNG(w.seed, -1)
	for k := 0; k < fleetChecks; k++ {
		o := ok[r.Intn(len(ok))]
		vals, err := managerValues(ctx, ref, o.job.req)
		if err != nil {
			return err
		}
		if !sameBits(vals, o.values) {
			return fmt.Errorf("fleet-cold: job %s: fleet values differ from the fleet-free run", o.job.status.ID)
		}
	}
	return nil
}

// managerValues runs req on m and returns its values.
func managerValues(ctx context.Context, m *valserve.Manager, req fedshap.JobRequest) ([]float64, error) {
	st, err := m.Submit(req)
	if err != nil {
		return nil, err
	}
	events, stop, err := m.Watch(st.ID)
	if err != nil {
		return nil, err
	}
	defer stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case ev, open := <-events:
			if !open {
				return nil, fmt.Errorf("job %s: event stream closed before a terminal state", st.ID)
			}
			if ev.Status == nil || !ev.Status.State.Terminal() {
				continue
			}
			if ev.Status.State != fedshap.JobDone || ev.Status.Report == nil {
				return nil, fmt.Errorf("job %s ended %s: %s", st.ID, ev.Status.State, ev.Status.Error)
			}
			return ev.Status.Report.Values, nil
		}
	}
}

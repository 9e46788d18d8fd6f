package main

import (
	"context"
	"fmt"
	"sync/atomic"

	"fedshap"
	"fedshap/internal/experiments"
	"fedshap/internal/shapley"
	"fedshap/internal/valserve"
)

// The valuation problem the library and fleet workloads share: the
// paper's n=10 FEMNIST-like federation with an MLP at the service's
// "small" scale, valued by IPSS at γ=32. Its data and training seeds are
// fixed, so value_rel_error measures the valuation algorithm rather than
// which federation a seed happened to draw (IPSS's error differs by a
// factor of three between federations but barely between sampling
// seeds); the run seed drives the sampling sequence and, for the fleet,
// which client's data each request revises.
const (
	baseClients  = 10
	baseDataSeed = 1
	ipssGamma    = 32
	// libraryTolerance bounds IPSS γ=32's mean relative error against
	// exact Shapley on the base federation (measured: 0.052).
	libraryTolerance = 0.10
	// libraryChecks is how many seeded valuations the worker-count
	// invariance check repeats.
	libraryChecks = 3
)

// baseRequest is the base problem as a service request.
func baseRequest() fedshap.JobRequest {
	req := fedshap.JobRequest{
		Data: "femnist", Model: "mlp", N: baseClients, Scale: "small",
		Algorithm: "ipss", Gamma: ipssGamma, Seed: baseDataSeed,
	}
	valserve.Normalize(&req)
	return req
}

// baseFederation builds the base problem through the public API: the
// same datasets, model and FedAvg configuration the service builds for
// baseRequest (the traced ladder checks the two agree bit for bit).
func baseFederation() (*fedshap.Federation, error) {
	sc := experiments.Small()
	clients, test := fedshap.FederatedWriters(baseClients, sc.PerClient, sc.TestSamples, baseDataSeed)
	return fedshap.NewFederation(
		fedshap.WithDatasets(clients...),
		fedshap.WithTestSet(test),
		fedshap.WithMLP(sc.Hidden),
		fedshap.WithFLRounds(sc.Rounds),
		fedshap.WithSeed(baseDataSeed+1),
	)
}

// exactValues computes a federation's exact Shapley values on every core.
func exactValues(ctx context.Context, fed *fedshap.Federation) ([]float64, error) {
	rep, err := fed.ValueParallelCtx(ctx, fedshap.ExactShapley(), 0, numCPU())
	if err != nil {
		return nil, err
	}
	return rep.Values, nil
}

// libraryWorkload is ipss-mlp-cold: one caller values the base federation
// through fedshap.Federation.ValueParallelCtx on an evaluation pool of
// trainWorkers workers. Every valuation builds a fresh oracle, so every
// coalition is trained; no service, journal, store or fleet is involved.
type libraryWorkload struct {
	seed  int64
	fed   *fedshap.Federation
	exact []float64
	next  atomic.Int64
	// ladder is the traced replay's problem (traced runs only).
	ladder ladderShape
}

func setupLibrary(ctx context.Context, e *env) (workload, error) {
	fed, err := baseFederation()
	if err != nil {
		return nil, err
	}
	exact, err := exactValues(ctx, fed)
	if err != nil {
		return nil, err
	}
	w := &libraryWorkload{seed: e.seed, fed: fed, exact: exact}
	if e.trace {
		if w.ladder, err = baseShape(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *libraryWorkload) name() string       { return "ipss-mlp-cold" }
func (w *libraryWorkload) tolerance() float64 { return libraryTolerance }
func (w *libraryWorkload) close() error       { return nil }

func (w *libraryWorkload) evalsPerValuation(outs []outcome, _ counterSet) float64 {
	return trainedPerValuation(outs)
}

// samplingSeed is the i-th valuation's sampling seed.
func (w *libraryWorkload) samplingSeed(i int64) int64 {
	return requestRNG(w.seed, i).Int63n(1 << 40)
}

func (w *libraryWorkload) valuate(ctx context.Context, traced bool) outcome {
	seed := w.samplingSeed(w.next.Add(1))
	if traced {
		return w.tracedValuate(ctx, seed)
	}
	return timed(func() outcome {
		rep, err := w.fed.ValueParallelCtx(ctx, fedshap.IPSS(ipssGamma), seed, trainWorkers)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{evals: rep.Evaluations, relErr: relErr(rep.Values, w.exact), values: rep.Values}
	})
}

// precheck: values are bit-identical at one worker and at one per CPU,
// and a valuation trains exactly the coalitions of IPSS's seeded plan.
func (w *libraryWorkload) precheck(ctx context.Context) error {
	for i := int64(0); i < libraryChecks; i++ {
		seed := w.samplingSeed(-1 - i)
		serial, err := w.fed.ValueParallelCtx(ctx, fedshap.IPSS(ipssGamma), seed, 1)
		if err != nil {
			return err
		}
		wide, err := w.fed.ValueParallelCtx(ctx, fedshap.IPSS(ipssGamma), seed, numCPU())
		if err != nil {
			return err
		}
		if !sameBits(serial.Values, wide.Values) {
			return fmt.Errorf("ipss-mlp-cold: seed %d: values differ between 1 and %d workers", seed, numCPU())
		}
		if want := planLen(shapley.NewIPSS(ipssGamma), baseClients, seed); serial.Evaluations != want {
			return fmt.Errorf("ipss-mlp-cold: seed %d: %d evaluations, plan has %d", seed, serial.Evaluations, want)
		}
	}
	return nil
}

func (w *libraryWorkload) postcheck(ctx context.Context, outs []outcome) error {
	for _, o := range outs {
		if o.err == nil && o.evals == 0 {
			return fmt.Errorf("ipss-mlp-cold: a valuation trained no coalition")
		}
	}
	return nil
}

// tracedValuate is one valuation replayed layer by layer (see replay).
func (w *libraryWorkload) tracedValuate(ctx context.Context, seed int64) outcome {
	return timed(func() outcome {
		vals, st, err := replay(ctx, w.ladder.spec, fedshap.IPSS(ipssGamma), seed, trainWorkers)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{evals: st.evals, relErr: relErr(vals, w.exact), values: vals}
	})
}

func (w *libraryWorkload) shape() (ladderShape, error) { return w.ladder, nil }

func (w *libraryWorkload) counters() counterSet { return counterSet{} }

// layers: the library path runs no service, so its service and fleet
// rungs come from the probe; its algorithm and cache rungs stay the
// replay's.
func (w *libraryWorkload) layers(ctx context.Context, e *env, _ []outcome, _ counterSet, lm layerMetrics) error {
	return fleetProbe(ctx, e, func(recs []*jobRecord, delta counterSet, capacity int) {
		serviceRungs(recs, delta, lm)
		fleetRungs(e, recs, delta, capacity, lm)
	})
}

// planLen is the number of distinct coalitions alg's seeded plan holds.
func planLen(alg shapley.Valuer, n int, seed int64) int {
	plan, _ := shapley.PlanFor(alg, n, seed)
	return len(plan)
}

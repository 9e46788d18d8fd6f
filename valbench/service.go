package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"fedshap"
	"fedshap/internal/evalnet"
	"fedshap/internal/valserve"
)

// daemon is an in-process fedvald: a valserve.Manager with a durable
// journal and utility store in a scratch directory, served by
// valserve.NewHandler on a loopback listener and driven through
// fedshap.ServiceClient. With a fleet it also runs an evalnet.Coordinator
// and one in-process evalnet.Worker dialled over loopback, so every fresh
// evaluation crosses the fleet protocol.
type daemon struct {
	dir       string
	mgr       *valserve.Manager
	srv       *http.Server
	serveDone chan error
	client    *fedshap.ServiceClient
	transport *http.Transport

	coord      *evalnet.Coordinator
	coordDone  chan error
	stopWorker context.CancelFunc
	workerDone chan error
	capacity   int

	// busyNanos accumulates the worker-measured time of each answered
	// assignment (traced runs only).
	busyNanos atomic.Int64
}

// daemonJobWorkers is fedvald's default number of concurrent jobs.
const daemonJobWorkers = 2

// startDaemon starts an in-process daemon under workDir, with a one-worker
// fleet of trainWorkers slots when fleet is set; observe installs the
// worker's Observe hook.
func startDaemon(workDir string, fleet, observe bool) (d *daemon, err error) {
	dir, err := os.MkdirTemp(workDir, "daemon-")
	if err != nil {
		return nil, err
	}
	d = &daemon{dir: dir}
	defer func() {
		if err != nil {
			err = errors.Join(err, d.close())
		}
	}()
	cfg := valserve.Config{
		Workers:     daemonJobWorkers,
		CacheDir:    filepath.Join(dir, "cache"),
		JournalPath: filepath.Join(dir, "journal.jsonl"),
	}
	if fleet {
		if err := d.startFleet(observe); err != nil {
			return d, err
		}
		cfg.Coordinator = d.coord
	}
	if d.mgr, err = valserve.NewManager(cfg); err != nil {
		return d, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	d.srv = &http.Server{Handler: valserve.NewHandler(d.mgr)}
	d.serveDone = make(chan error, 1)
	go func() { d.serveDone <- d.srv.Serve(ln) }()
	d.transport = &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}
	d.client = fedshap.NewServiceClient("http://" + ln.Addr().String())
	d.client.HTTPClient = &http.Client{Transport: d.transport}
	return d, nil
}

// startFleet starts the coordinator and dials one worker into it, waiting
// until the worker is attached.
func (d *daemon) startFleet(observe bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.coord = evalnet.NewCoordinator()
	d.coordDone = make(chan error, 1)
	go func() { d.coordDone <- d.coord.Serve(ln) }()
	d.capacity = trainWorkers
	w := &evalnet.Worker{
		Name:     "valbench-worker",
		Capacity: d.capacity,
		Build:    valserve.WorkerEvaluatorWith(0),
	}
	if observe {
		w.Observe = func(_ string, seconds float64) { d.busyNanos.Add(int64(seconds * 1e9)) }
	}
	wctx, cancel := context.WithCancel(context.Background())
	d.stopWorker = cancel
	d.workerDone = make(chan error, 1)
	go func() { d.workerDone <- w.Dial(wctx, ln.Addr().String()) }()
	deadline := time.Now().Add(10 * time.Second)
	for d.coord.WorkerCount() == 0 {
		if time.Now().After(deadline) {
			return errors.New("evaluation worker did not attach within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// close stops the daemon, its fleet and its worker, waits for each, and
// removes the scratch directory.
func (d *daemon) close() error {
	var errs []error
	if d.srv != nil {
		errs = append(errs, d.srv.Close())
		if err := <-d.serveDone; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		d.transport.CloseIdleConnections()
	}
	if d.mgr != nil {
		errs = append(errs, d.mgr.Close())
	}
	if d.stopWorker != nil {
		d.stopWorker()
		<-d.workerDone // the dial ends with the cancellation error
	}
	if d.coord != nil {
		errs = append(errs, d.coord.Close())
		<-d.coordDone // Serve ends when Close closes its listener
	}
	errs = append(errs, os.RemoveAll(d.dir))
	return errors.Join(errs...)
}

// jobRecord is one service valuation as its client saw it.
type jobRecord struct {
	req    fedshap.JobRequest
	status *fedshap.JobStatus
	// seconds runs from the submit call to the terminal event's arrival.
	seconds float64
	// submitS is the POST /v1/jobs round trip.
	submitS float64
	// notifyS runs from the job's terminal state to the client seeing
	// its terminal event on the SSE stream.
	notifyS float64
	// trace is the job's span timeline (traced valuations only).
	trace *fedshap.JobTrace
}

// value submits one job and waits for it on its event stream.
func (d *daemon) value(ctx context.Context, req fedshap.JobRequest, traced bool) (*jobRecord, error) {
	start := time.Now()
	st, err := d.client.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	rec := &jobRecord{req: req, submitS: time.Since(start).Seconds()}
	final, err := d.client.WatchJob(ctx, st.ID, nil)
	seen := time.Now()
	if err != nil {
		return nil, err
	}
	if final.State != fedshap.JobDone || final.Report == nil {
		return nil, fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	rec.status = final
	rec.seconds = seen.Sub(start).Seconds()
	if final.FinishedAt != nil {
		rec.notifyS = seen.Sub(*final.FinishedAt).Seconds()
	}
	if traced {
		// A fleet job's dispatch spans are added as its fleet session
		// closes, which can follow the terminal event: re-fetch the trace
		// briefly until they are there.
		for try := 0; ; try++ {
			if rec.trace, err = d.client.Trace(ctx, st.ID); err != nil {
				return nil, err
			}
			if d.coord == nil || final.FreshEvals == 0 || hasDispatch(rec.trace) || try == dispatchRetries {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	return rec, nil
}

// dispatchRetries bounds the trace re-fetches that wait for a fleet
// job's dispatch spans.
const dispatchRetries = 50

// hasDispatch reports whether a trace holds a closed dispatch span.
func hasDispatch(tr *fedshap.JobTrace) bool {
	for _, sp := range tr.Spans {
		if sp.Name == "dispatch" && sp.End != nil {
			return true
		}
	}
	return false
}

// serviceOutcome turns a job into a loop outcome.
func serviceOutcome(rec *jobRecord, err error, evals int, ref []float64) outcome {
	if err != nil {
		return outcome{err: err}
	}
	vals := rec.status.Report.Values
	if len(vals) != len(ref) {
		return outcome{err: fmt.Errorf("job %s: %d values for %d clients", rec.status.ID, len(vals), len(ref))}
	}
	return outcome{seconds: rec.seconds, evals: evals, relErr: relErr(vals, ref), values: vals, job: rec}
}

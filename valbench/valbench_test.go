package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"fedshap"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var listed []string
	for _, w := range loadSpec(t).Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(listed, ",") {
		t.Fatalf("registered workloads %v, BENCHMARK.json lists %v", got, listed)
	}
}

// runOnce runs one short benchmark with a single set-up and returns its
// result.
func runOnce(t *testing.T, workload string, trace bool) result {
	t.Helper()
	var log bytes.Buffer
	res, err := runWorkload(context.Background(), options{
		workload: workload, seed: 5, seconds: 1, trace: trace,
		workDir: t.TempDir(), setups: 1, log: &log,
	})
	if err != nil || res == nil || !res.Correct {
		t.Fatalf("err %v, result %+v\nlog:\n%s", err, res, log.String())
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	return *res
}

// checkMetrics verifies the result carries exactly the listed metrics,
// each with its listed unit and a finite value.
func checkMetrics(t *testing.T, res result, names, units []string) {
	t.Helper()
	if len(res.Metrics) != len(names) {
		t.Errorf("%d metrics emitted, %d listed", len(res.Metrics), len(names))
	}
	for i, name := range names {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", name)
		case m.Unit != units[i]:
			t.Errorf("metric %s: unit %q, listed %q", name, m.Unit, units[i])
		case !finite(m.Value):
			t.Errorf("metric %s: non-finite value %v", name, m.Value)
		}
	}
}

// TestSmoke runs every workload briefly in both modes and checks that
// each metric BENCHMARK.json names is emitted with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("each workload trains real models for several seconds")
	}
	spec := loadSpec(t)
	var e2eNames, e2eUnits, layerNames, layerUnits []string
	for _, m := range spec.EndToEnd {
		e2eNames, e2eUnits = append(e2eNames, m.Name), append(e2eUnits, m.Unit)
	}
	for _, m := range spec.PerLayer {
		layerNames, layerUnits = append(layerNames, m.Name), append(layerUnits, m.Unit)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name+"/timed", func(t *testing.T) {
			res := runOnce(t, w.Name, false)
			checkMetrics(t, res, e2eNames, e2eUnits)
			for _, name := range e2eNames {
				if res.Metrics[name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
		})
		t.Run(w.Name+"/traced", func(t *testing.T) {
			checkMetrics(t, runOnce(t, w.Name, true), layerNames, layerUnits)
		})
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload", "--seconds", "1"},
		{"--workload", "ipss-mlp-cold", "--trace", "2"},
		{"--workload", "ipss-mlp-cold", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestQuantileAndThroughput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if q := quantile(xs, 0.5); q != 5 {
		t.Errorf("p50 = %v, want 5", q)
	}
	if q := quantile(xs, 0.9); q != 9 {
		t.Errorf("p90 = %v, want 9", q)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if u := unionSeconds(nil); u != 0 {
		t.Errorf("union of no spans = %v", u)
	}

	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	span := func(a, b float64) fedshap.TraceSpan {
		end := at(b)
		return fedshap.TraceSpan{Start: at(a), End: &end}
	}
	if u := unionSeconds([]fedshap.TraceSpan{span(3, 4), span(0, 1), span(0.5, 2)}); math.Abs(u-3) > 1e-9 {
		t.Errorf("union = %v, want 3", u)
	}

	// Completions every 0.1s over a 10s window: 10 per second in every slice.
	loop := &loopResult{start: t0, window: 10 * time.Second}
	for i := 1; i < 100; i++ {
		loop.outcomes = append(loop.outcomes, outcome{end: at(float64(i) / 10)})
	}
	if r := loop.throughput(); math.Abs(r-10) > 1e-6 {
		t.Errorf("throughput = %v, want 10", r)
	}

	// Three completions, the last after the window: too few to rate the
	// slices, so the rate runs to the last completion.
	slow := &loopResult{start: t0, window: 10 * time.Second}
	for _, s := range []float64{2, 5, 12} {
		slow.outcomes = append(slow.outcomes, outcome{end: at(s)})
	}
	if r := slow.throughput(); math.Abs(r-0.25) > 1e-9 {
		t.Errorf("sparse throughput = %v, want 0.25", r)
	}
}

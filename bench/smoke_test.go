package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload at one timed round, untraced and traced,
// and checks what the benchmark promises: no wrong output, every named
// metric present and finite, one trace file per workload whose self times
// add up to the op times.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	out := t.TempDir()
	for _, w := range workloads() {
		exp, err := loadExpectations(1)
		if err != nil {
			t.Fatal(err)
		}
		e2e, err := runEndToEnd(w, 1, time.Nanosecond, exp)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := runTraced(w, 1, time.Nanosecond, exp, out)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*result{e2e, layers} {
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s: %d of %d ops failed: %v", w.name(), r.Failed, r.Attempted, r.Failures)
			}
			if r.Verified != "expected" {
				t.Errorf("%s: seed 1 verified %q, want every output compared with expected.json", w.name(), r.Verified)
			}
		}
		checkMetrics(t, w.name(), endToEnd, e2e.Metrics, true)
		checkMetrics(t, w.name(), perLayer, layers.Metrics, false)
		checkTraceFile(t, filepath.Join(out, "trace-"+w.name()+".jsonl"))
	}
}

func checkMetrics(t *testing.T, workload string, defs []metricDef, got map[string]float64, positive bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d named", workload, len(got), len(defs))
	}
	for _, m := range defs {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("%s: metric %s = %v", workload, m.Name, v)
		case positive && v <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", workload, m.Name, v)
		}
	}
}

// checkTraceFile re-reads a trace and checks that every op's self times sum
// to the op's own duration within 1 %.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	opNs, selfNs := map[spanID]int64{}, map[spanID]int64{}
	for i, self := range selfTimes(spans) {
		if spans[i].Parent == 0 {
			opNs[spans[i].Op] = spans[i].EndNs - spans[i].StartNs
		}
		selfNs[spans[i].Op] += self
	}
	for op, d := range opNs {
		if diff := math.Abs(float64(selfNs[op] - d)); diff > 0.01*float64(d) {
			t.Errorf("%s: op %d took %d ns, its self times sum to %d", path, op, d, selfNs[op])
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables here
// in step: same workloads, same metric names, units, directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(file.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(file.Workloads), len(ws))
	}
	for i, w := range ws {
		if file.Workloads[i].Name != w.name() {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, file.Workloads[i].Name, w.name())
		}
	}
	same := func(kind string, listed []metric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			if got := listed[i]; got != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the harness %+v", kind, i, got, d)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}
